//! Concurrent bank transfers: atomicity, composition via nesting, and
//! `retry`-based condition synchronization across four simulated cores.
//!
//! Demonstrates the language-level semantics the paper argues HTMs cannot
//! provide directly (§2): composable nested transactions and blocking
//! primitives, all hardware-accelerated.
//!
//! Run with: `cargo run --release -p hastm-bench --example bank_transfer`

use hastm::{Granularity, ObjRef, StmConfig, StmRuntime, TxResult, TxThread};
use hastm_sim::{Machine, MachineConfig, WorkerFn};

const ACCOUNTS: u32 = 16;
const TRANSFERS_PER_TELLER: u32 = 200;
const INITIAL_BALANCE: u64 = 1_000;

/// Withdraws from one account, blocking (transactionally) until funds are
/// available.
fn withdraw(tx: &mut TxThread<'_, '_>, acct: ObjRef, amount: u64) -> TxResult<()> {
    let balance = tx.read_word(acct, 0)?;
    if balance < amount {
        // Not enough money: retry blocks until another teller deposits.
        return tx.retry_now();
    }
    tx.write_word(acct, 0, balance - amount)
}

fn deposit(tx: &mut TxThread<'_, '_>, acct: ObjRef, amount: u64) -> TxResult<()> {
    let balance = tx.read_word(acct, 0)?;
    tx.write_word(acct, 0, balance + amount)
}

fn main() {
    let cores: usize = std::env::var("TELLERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut machine = Machine::new(MachineConfig::with_cores(cores));
    let runtime = StmRuntime::new(
        &mut machine,
        StmConfig::hastm(Granularity::Object, hastm::ModePolicy::AbortRatioWatermark),
    );

    // Set up the accounts in a setup run on core 0.
    let (accounts, _) = machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        let accounts: Vec<ObjRef> = (0..ACCOUNTS).map(|_| tx.alloc_obj(1)).collect();
        tx.atomic(|tx| {
            for a in &accounts {
                tx.write_word(*a, 0, INITIAL_BALANCE)?;
            }
            Ok(())
        });
        accounts
    });

    // Four tellers move money between deterministic-random account pairs.
    let runtime_ref = &runtime;
    let accounts_ref = &accounts;
    let stats = std::sync::Mutex::new(Vec::new());
    let stats_ref = &stats;
    let workers: Vec<WorkerFn<'_>> = (0..cores)
        .map(|teller| {
            Box::new(move |cpu: &mut hastm_sim::Cpu| {
                let mut tx = TxThread::new(runtime_ref, cpu);
                let mut rng = 0x9e37_79b9_7f4a_7c15_u64 ^ ((teller as u64) << 32);
                for _ in 0..TRANSFERS_PER_TELLER {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let from = accounts_ref[(rng % ACCOUNTS as u64) as usize];
                    let to = accounts_ref[((rng >> 8) % ACCOUNTS as u64) as usize];
                    let amount = 1 + rng % 50;
                    if from == to {
                        continue;
                    }
                    // The whole transfer is one atomic action composed of
                    // two nested operations.
                    tx.atomic(|tx| {
                        tx.nested(|tx| withdraw(tx, from, amount))?;
                        tx.nested(|tx| deposit(tx, to, amount))?;
                        Ok(())
                    });
                }
                stats_ref.lock().unwrap().push(tx.stats().clone());
            }) as WorkerFn<'_>
        })
        .collect();
    let report = machine.run(workers);

    // Money is conserved: the sum of balances is exactly the total minted.
    let (total, _) = machine.run_one(|cpu| {
        let mut tx = TxThread::new(&runtime, cpu);
        tx.atomic(|tx| {
            let mut sum = 0;
            for a in accounts_ref {
                sum += tx.read_word(*a, 0)?;
            }
            Ok(sum)
        })
    });
    assert_eq!(total, ACCOUNTS as u64 * INITIAL_BALANCE, "money conserved");

    let mut commits = 0;
    let mut aborts = 0;
    let mut retries = 0;
    for s in stats.lock().unwrap().iter() {
        commits += s.commits;
        aborts += s.aborts_conflict + s.aborts_mark_dirty;
        retries += s.aborts_retry;
    }
    println!("tellers:            {cores}");
    println!("total balance:      {total} (conserved)");
    println!("commits:            {commits}");
    println!("conflict aborts:    {aborts}");
    println!("blocking retries:   {retries}");
    println!("simulated cycles:   {}", report.makespan());
    println!("bank_transfer OK");
}
