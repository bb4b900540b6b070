//! The shared STM runtime: configuration, the global record table, and
//! object references.

use hastm_sim::{Addr, Machine, SimHeap};

use crate::config::{ModePolicy, StmConfig};
use crate::mvcc::VersionStore;
use crate::oracle::{OracleLog, OracleMode, SerializationViolation};
use crate::phase::SharedModeState;
use crate::record::{RecValue, RecordTable};

/// A reference to a transactional object: a 16-byte-minimum heap cell whose
/// first word is its transaction record (used directly under
/// [`crate::Granularity::Object`]) followed by data words.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ObjRef(pub Addr);

impl ObjRef {
    /// A null reference (no object).
    pub const NULL: ObjRef = ObjRef(Addr::NULL);

    /// Whether this is [`ObjRef::NULL`].
    pub fn is_null(self) -> bool {
        self.0.is_null()
    }

    /// Address of the header (transaction-record) word.
    #[inline]
    pub fn header(self) -> Addr {
        self.0
    }

    /// Address of data word `index`.
    #[inline]
    pub fn word(self, index: u32) -> Addr {
        self.0.offset(8 + 8 * index as u64)
    }
}

impl std::fmt::Display for ObjRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj@{}", self.0)
    }
}

/// Shared, read-only state of one STM instance on one machine.
///
/// # Examples
///
/// ```
/// use hastm::{StmConfig, StmRuntime, Granularity};
/// use hastm_sim::{Machine, MachineConfig};
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let runtime = StmRuntime::new(&mut machine, StmConfig::stm(Granularity::CacheLine));
/// assert_eq!(runtime.config().granularity, Granularity::CacheLine);
/// ```
#[derive(Debug)]
pub struct StmRuntime {
    config: StmConfig,
    heap: SimHeap,
    rec_table: RecordTable,
    oracle_log: OracleLog,
    versions: Option<VersionStore>,
    phase_state: Option<SharedModeState>,
}

impl StmRuntime {
    /// Creates a runtime on `machine`, allocating and initializing the
    /// global record table (all records start shared at version 1).
    pub fn new(machine: &mut Machine, config: StmConfig) -> Self {
        let heap = machine.heap();
        let rec_table = RecordTable::alloc(&heap);
        for (addr, value) in rec_table.initial_values() {
            machine.poke_u64(addr, value);
        }
        let versions = config
            .versioning
            .is_multi()
            .then(|| VersionStore::new(config.versioning.depth()));
        let phase_state = match config.mode_policy {
            ModePolicy::Phased(params) => Some(SharedModeState::new(params)),
            _ => None,
        };
        StmRuntime {
            config,
            heap,
            rec_table,
            oracle_log: OracleLog::default(),
            versions,
            phase_state,
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The simulated heap.
    pub fn heap(&self) -> &SimHeap {
        &self.heap
    }

    /// The global cache-line-granularity record table.
    pub fn rec_table(&self) -> &RecordTable {
        &self.rec_table
    }

    /// The shared oracle state: committed-write journal and deferred
    /// obligations (see [`crate::oracle`]). Empty unless
    /// [`StmConfig::oracle`] is on.
    pub fn oracle_log(&self) -> &OracleLog {
        &self.oracle_log
    }

    /// The committed-version store, present only under
    /// [`crate::Versioning::Multi`].
    pub fn version_store(&self) -> Option<&VersionStore> {
        self.versions.as_ref()
    }

    /// The scheme-wide shared phase state, present only under
    /// [`crate::ModePolicy::Phased`].
    pub fn phase_state(&self) -> Option<&SharedModeState> {
        self.phase_state.as_ref()
    }

    /// Checks every committed transaction's deferred serializability
    /// obligations against the committed-write journal, draining both.
    ///
    /// Call after [`Machine::run`] returns (the journal is complete only
    /// once the machine quiesces). A no-op returning `[]` when the oracle
    /// is [`OracleMode::Off`].
    ///
    /// # Panics
    ///
    /// Panics on the first violation under [`OracleMode::Panic`].
    pub fn verify_serializability(&self, machine: &Machine) -> Vec<SerializationViolation> {
        if self.config.oracle == OracleMode::Off {
            return Vec::new();
        }
        let violations = self.oracle_log.verify(|addr| machine.peek_u64(addr));
        if self.config.oracle == OracleMode::Panic {
            if let Some(v) = violations.first() {
                panic!(
                    "oracle: unserializable commit: {v} ({} violations total)",
                    violations.len()
                );
            }
        }
        violations
    }

    /// Allocates an object shell (header + `data_words` words) and returns
    /// the `(ref, header_value)` pair; the caller must store
    /// `header_value` at `ref.header()` before sharing the object. (Done by
    /// [`crate::TxThread::alloc_obj`]; exposed for tests.)
    ///
    /// Allocation goes through `cpu`'s logical-clock gate so concurrent
    /// allocating threads receive run-to-run identical addresses.
    pub fn alloc_obj_shell(&self, cpu: &mut hastm_sim::Cpu<'_>, data_words: u32) -> (ObjRef, u64) {
        let bytes = (8 + 8 * data_words as u64).max(16);
        (ObjRef(cpu.alloc(&self.heap, bytes)), RecValue::INITIAL.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hastm_sim::MachineConfig;

    #[test]
    fn record_table_initialized() {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, StmConfig::default());
        let rec = rt.rec_table().record_for(Addr(0x1234));
        assert_eq!(m.peek_u64(rec), RecValue::INITIAL.0);
    }

    #[test]
    fn obj_layout() {
        let o = ObjRef(Addr(0x100));
        assert_eq!(o.header(), Addr(0x100));
        assert_eq!(o.word(0), Addr(0x108));
        assert_eq!(o.word(3), Addr(0x120));
        assert!(ObjRef::NULL.is_null());
        assert!(!o.is_null());
        assert_eq!(o.to_string(), "obj@0x100");
    }

    #[test]
    fn shell_allocation_minimum_size() {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, StmConfig::default());
        let ((a, hv), _) = m.run_one(|cpu| {
            let (a, hv) = rt.alloc_obj_shell(cpu, 0);
            let (b, _) = rt.alloc_obj_shell(cpu, 0);
            assert!(b.0 .0 - a.0 .0 >= 16, "minimum 16-byte objects");
            (a, hv)
        });
        assert!(!a.is_null());
        assert_eq!(hv, 1);
    }
}
