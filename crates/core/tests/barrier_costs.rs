//! Cost-shape tests: the paper's headline micro-claims about barrier
//! costs, checked in cycles on the simulator's fixed cost model.

use hastm::{Granularity, ModePolicy, StmConfig, StmRuntime, TxThread};
use hastm_sim::{Machine, MachineConfig};

#[test]
fn fast_path_is_much_cheaper_than_slow_path() {
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(
        &mut m,
        StmConfig::hastm(Granularity::CacheLine, ModePolicy::NaiveAggressive),
    );
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let o = tx.alloc_obj(2);
        tx.atomic(|tx| {
            tx.read_word(o, 0)?;
            Ok(())
        });
        tx.atomic(|tx| {
            assert_eq!(tx.mode(), hastm::Mode::Aggressive);
            let t0 = tx.cpu().now();
            tx.read_word(o, 0)?; // slow: marks were cleared at begin
            let slow = tx.cpu().now() - t0;
            let t1 = tx.cpu().now();
            tx.read_word(o, 1)?; // fast: same line now marked
            let fast = tx.cpu().now() - t1;
            assert!(
                fast * 2 <= slow,
                "fast path ({fast}) must be well under slow path ({slow})"
            );
            assert!(fast <= 8, "fast path is ~2 instructions, got {fast} cycles");
            Ok(())
        });
        assert_eq!(tx.stats().read_fast_path, 1);
    });
}

#[test]
fn steady_state_read_cost_tracks_reuse() {
    // With 50% same-line reuse, HASTM's average warm read must be well
    // below the base STM's (~12+ cycle) barrier.
    let mut m = Machine::new(MachineConfig::default());
    let rt = StmRuntime::new(
        &mut m,
        StmConfig::hastm(Granularity::CacheLine, ModePolicy::SingleThreadAggressive),
    );
    m.run_one(|cpu| {
        let mut tx = TxThread::new(&rt, cpu);
        let objs: Vec<_> = (0..64).map(|_| tx.alloc_obj(7)).collect();
        // Warm pass (also flips the mode controller to aggressive).
        tx.atomic(|tx| {
            for o in &objs {
                tx.read_word(*o, 0)?;
            }
            Ok(())
        });
        let t0 = tx.cpu().now();
        tx.atomic(|tx| {
            for o in &objs {
                tx.read_word(*o, 0)?; // slow (first touch this txn)
                tx.read_word(*o, 1)?; // fast (same line)
            }
            Ok(())
        });
        let per_read = (tx.cpu().now() - t0) as f64 / 128.0;
        assert!(
            per_read < 12.0,
            "mixed warm read cost should be < 12 cycles, got {per_read:.1}"
        );
    });
}

#[test]
fn aggressive_validation_is_constant_time() {
    // Aggressive commit validation reads one counter regardless of read-set
    // size; STM commit validation walks the read set.
    fn commit_cost(cfg: StmConfig, reads: u32) -> u64 {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, cfg);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let objs: Vec<_> = (0..reads).map(|_| tx.alloc_obj(1)).collect();
            // Warm caches + mode controller.
            for _ in 0..2 {
                tx.atomic(|tx| {
                    for o in &objs {
                        tx.read_word(*o, 0)?;
                    }
                    Ok(())
                });
            }
            let before = tx.stats().breakdown.validate;
            tx.atomic(|tx| {
                for o in &objs {
                    tx.read_word(*o, 0)?;
                }
                Ok(())
            });
            tx.stats().breakdown.validate - before
        })
        .0
    }
    let stm_small = commit_cost(StmConfig::stm(Granularity::CacheLine), 16);
    let stm_big = commit_cost(StmConfig::stm(Granularity::CacheLine), 128);
    assert!(
        stm_big > stm_small * 4,
        "STM validation scales with read set: {stm_small} -> {stm_big}"
    );
    let hastm_cfg = StmConfig::hastm(Granularity::CacheLine, ModePolicy::SingleThreadAggressive);
    let hastm_small = commit_cost(hastm_cfg.clone(), 16);
    let hastm_big = commit_cost(hastm_cfg, 128);
    // 8x the reads only adds a few periodic counter checks (~1-2 cycles
    // each), never a read-set walk.
    assert!(
        hastm_big <= hastm_small + 20,
        "HASTM validation is (near) constant: {hastm_small} -> {hastm_big}"
    );
    assert!(hastm_big < stm_big / 10, "HASTM commit validation is cheap");
}
