//! Dynamically registered trace sources.
//!
//! The twelve [`Benchmark`](crate::Benchmark) models are a closed enum,
//! which is what lets every layer of the workspace copy cell specs by
//! value. Scenario workloads (the `ccs-scenario` DSL) are open-ended:
//! they arrive as manifests at runtime — from a file, a fuzzer, or the
//! wire — so they cannot live in that enum. This module closes the gap
//! with a process-wide *source registry*: a scenario registers its
//! canonical manifest text plus a generator closure and receives a
//! [`SourceId`], a `Copy` handle derived from the FNV-1a fingerprint of
//! the canonical text. Everything downstream (cell specs, the trace
//! cache, checkpoint keys, shard routing) carries the id; only the edges
//! that parse or re-emit manifests ever see the DSL itself.
//!
//! Registration is idempotent and content-addressed: two registrations
//! of the same canonical text yield the same id and keep the first
//! entry, so re-registering a scenario (a resumed campaign, a repeated
//! wire submission) is free and cannot change what the id generates.

use crate::builder::Trace;
use crate::store::TraceStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// FNV-1a offset basis: the state of the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues a 64-bit FNV-1a hash from state `h` over `bytes`. Hashing a
/// message piece by piece gives the same value as hashing it whole.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over `bytes`: the workspace's one FNV-1a. Source ids
/// hash canonical manifest text with it; cell keys, shard ring points
/// and result digests build on it too.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The identity of a registered trace source: the FNV-1a fingerprint of
/// its canonical manifest text.
///
/// `Copy` by design — it rides inside `CellSpec` through every grid,
/// checkpoint and wire layer. The fingerprint *is* the identity: equal
/// canonical text means equal id, regardless of field order in the file
/// the manifest was parsed from (canonicalization happens before
/// fingerprinting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(u64);

impl SourceId {
    /// The raw fingerprint.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The generator closure of a registered source.
pub type SourceGenerator = dyn Fn(u64, usize) -> Trace + Send + Sync;

struct RegisteredSource {
    name: Arc<str>,
    manifest: Arc<str>,
    generate: Arc<SourceGenerator>,
}

/// A process-wide table of dynamically registered trace sources.
///
/// The registry deliberately treats manifests as *opaque text*: parsing
/// and canonicalization belong to the DSL layer (`ccs-scenario`), which
/// keeps this crate free of any manifest knowledge while still letting
/// `ccs-core` resolve a [`SourceId`] to a trace.
#[derive(Default)]
pub struct SourceRegistry {
    map: Mutex<HashMap<u64, RegisteredSource>>,
}

impl SourceRegistry {
    /// The process-wide registry.
    pub fn global() -> &'static SourceRegistry {
        static GLOBAL: OnceLock<SourceRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SourceRegistry::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, RegisteredSource>> {
        // The table holds only registration bookkeeping; a panicking
        // generator runs outside this lock (in the TraceStore slot), so
        // poison recovery is safe, matching the store's own policy.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a source under the fingerprint of `manifest`, returning
    /// its id. Content-addressed and idempotent: if the fingerprint is
    /// already registered the existing entry wins and `generate` is
    /// dropped.
    pub fn register(
        &self,
        name: &str,
        manifest: &str,
        generate: Box<SourceGenerator>,
    ) -> SourceId {
        let id = SourceId(fnv1a(manifest.as_bytes()));
        self.lock().entry(id.0).or_insert_with(|| RegisteredSource {
            name: Arc::from(name),
            manifest: Arc::from(manifest),
            generate: Arc::from(generate),
        });
        id
    }

    /// The registered display name of `id`, if known in this process.
    pub fn name(&self, id: SourceId) -> Option<Arc<str>> {
        self.lock().get(&id.raw()).map(|s| Arc::clone(&s.name))
    }

    /// The canonical manifest text of `id`, if known in this process —
    /// what the wire layer re-emits so a remote daemon can re-register
    /// the identical source.
    pub fn manifest(&self, id: SourceId) -> Option<Arc<str>> {
        self.lock().get(&id.raw()).map(|s| Arc::clone(&s.manifest))
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: SourceId) -> bool {
        self.lock().contains_key(&id.raw())
    }

    /// The trace of `(id, seed, len)`, memoized in `store` under the
    /// source's fingerprint exactly like benchmark traces are memoized
    /// under their enum key.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never registered in this process — a
    /// programming error: every path that builds a scenario cell spec
    /// registers the scenario first.
    pub fn trace_in(&self, store: &TraceStore, id: SourceId, seed: u64, len: usize) -> Arc<Trace> {
        let generate = self
            .lock()
            .get(&id.raw())
            .map(|s| Arc::clone(&s.generate))
            .unwrap_or_else(|| panic!("trace source {id} is not registered in this process"));
        store.get_custom(id.raw(), seed, len, move || generate(seed, len))
    }

    /// [`trace_in`](Self::trace_in) against the global
    /// [`TraceStore`](crate::TraceStore).
    pub fn trace(&self, id: SourceId, seed: u64, len: usize) -> Arc<Trace> {
        self.trace_in(TraceStore::global(), id, seed, len)
    }
}

impl std::fmt::Debug for SourceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.lock();
        f.debug_struct("SourceRegistry")
            .field("sources", &map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use ccs_isa::{ArchReg, OpClass, Pc, StaticInst};

    fn tiny_trace(seed: u64, len: usize) -> Trace {
        let mut b = TraceBuilder::new();
        for i in 0..len {
            b.push_simple(
                StaticInst::new(Pc::new(0x9000 + seed), OpClass::IntAlu)
                    .with_src(ArchReg::int(1))
                    .with_dst(ArchReg::int(1)),
            );
            let _ = i;
        }
        b.finish()
    }

    #[test]
    fn registration_is_content_addressed_and_idempotent() {
        let reg = SourceRegistry::default();
        let a = reg.register("alpha", "name = \"alpha\"\n", Box::new(tiny_trace));
        let b = reg.register("alpha-again", "name = \"alpha\"\n", Box::new(tiny_trace));
        assert_eq!(a, b, "same canonical text, same id");
        // First registration wins.
        assert_eq!(reg.name(a).as_deref(), Some("alpha"));
        let c = reg.register("beta", "name = \"beta\"\n", Box::new(tiny_trace));
        assert_ne!(a, c);
        assert_eq!(reg.manifest(c).as_deref(), Some("name = \"beta\"\n"));
        assert!(reg.contains(a));
        assert!(!reg.contains(SourceId(0xDEAD)));
    }

    #[test]
    fn trace_in_memoizes_like_benchmark_traces() {
        let reg = SourceRegistry::default();
        let store = TraceStore::new();
        let id = reg.register("memo", "memo-manifest", Box::new(tiny_trace));
        let a = reg.trace_in(&store, id, 3, 40);
        let b = reg.trace_in(&store, id, 3, 40);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.misses(), 1);
        assert_eq!(a.len(), 40);
        // Different seed is a different cache entry.
        let c = reg.trace_in(&store, id, 4, 40);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_source_panics() {
        let reg = SourceRegistry::default();
        let store = TraceStore::new();
        reg.trace_in(&store, SourceId(1), 0, 10);
    }

    #[test]
    fn source_id_displays_as_hex_fingerprint() {
        assert_eq!(SourceId(0xAB).to_string(), "00000000000000ab");
        assert_eq!(SourceId(0xAB).raw(), 0xAB);
    }
}
