//! FNV-1a digests of simulation results over their `derive(Debug)` text,
//! computed without building the text.
//!
//! Checkpoint records pin a result as FNV-1a over `format!("{:?}",
//! result)`, and the golden corpus pins a schedule as FNV-1a over every
//! record's `{:?}` rendering, concatenated. Rendering about 335 bytes per
//! instruction into a `String` cost more than simulating the cell. The
//! kernels here feed the hash the same bytes directly:
//!
//! * integers go through a digit loop;
//! * field names, punctuation and enum variants are constant byte runs,
//!   each folded in O(1) through a precomputed 256-entry table;
//! * only the machine configuration, the ILP census and the `f32`
//!   likelihood of criticality go through `core::fmt`, the last memoized
//!   by bit pattern.
//!
//! [`result_digest`] and [`records_digest`] are therefore bit-identical
//! to hashing the `Debug` rendering. The equivalence tests use that
//! rendering as their oracle, so a new record field or a change in
//! rustc's `derive(Debug)` output fails them loudly instead of silently
//! moving every committed digest. The emitters destructure each struct
//! without `..`, so a new field also fails to compile here.

use crate::record::{CommitBound, DispatchBound, InstRecord, ReadyBound};
use crate::result::SimResult;
use ccs_trace::{fnv1a_extend, DynIdx, FNV_OFFSET, FNV_PRIME};
use std::fmt::{self, Write as _};
use std::io;

/// FNV-1a over `format!("{:?}", result)`, without formatting the result.
pub fn result_digest(result: &SimResult) -> u64 {
    let SimResult {
        config,
        cycles,
        records,
        mispredicts,
        conditional_branches,
        l1_misses,
        l1_accesses,
        global_values,
        ilp,
        steer_stall_cycles,
    } = result;
    let mut f = DebugFnv::new();
    f.bytes(b"SimResult { config: ");
    // The configuration and the ILP census are a few hundred bytes once
    // per result: `fmt` renders them straight into the hash.
    let _ = write!(f, "{config:?}");
    f.bytes(b", cycles: ");
    f.u64(*cycles);
    f.bytes(b", records: [");
    let mut memo = LocMemo::new();
    for (i, r) in records.iter().enumerate() {
        f.record(r, if i == 0 { &OPEN } else { &SEP_OPEN }, &mut memo);
    }
    f.bytes(b"], mispredicts: ");
    f.u64(*mispredicts);
    f.bytes(b", conditional_branches: ");
    f.u64(*conditional_branches);
    f.bytes(b", l1_misses: ");
    f.u64(*l1_misses);
    f.bytes(b", l1_accesses: ");
    f.u64(*l1_accesses);
    f.bytes(b", global_values: ");
    f.u64(*global_values);
    let _ = write!(f, ", ilp: {ilp:?}");
    f.bytes(b", steer_stall_cycles: ");
    f.u64(*steer_stall_cycles);
    f.bytes(b" }");
    f.h
}

/// FNV-1a over the `{:?}` renderings of `records`, concatenated with no
/// separator: the golden corpus's schedule digest.
pub fn records_digest(records: &[InstRecord]) -> u64 {
    let mut f = DebugFnv::new();
    let mut memo = LocMemo::new();
    for r in records {
        f.record(r, &OPEN, &mut memo);
    }
    f.h
}

/// A constant byte run folded into an FNV-1a state in O(1).
///
/// FNV-1a's xor touches only the state's low byte, and a product modulo
/// 2^64 has low 8 bits that depend only on its factors' low 8 bits. So
/// hashing the run `s` (length n) from state `h = H + l`, with
/// `l = h & 0xff`, yields `H·Pⁿ + g(l)`, where `g(l)` is the hash of `s`
/// from the state `l` alone: one multiply plus one lookup in a 256-entry
/// table built at compile time.
struct Literal {
    /// `Pⁿ`.
    mul: u64,
    /// `g(l)` for every low byte `l`.
    add: [u64; 256],
}

impl Literal {
    const fn new(s: &[u8]) -> Literal {
        let mut mul = 1u64;
        let mut i = 0;
        while i < s.len() {
            mul = mul.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut add = [0u64; 256];
        let mut l = 0;
        while l < 256 {
            let mut g = l as u64;
            let mut i = 0;
            while i < s.len() {
                g = (g ^ s[i] as u64).wrapping_mul(FNV_PRIME);
                i += 1;
            }
            add[l] = g;
            l += 1;
        }
        Literal { mul, add }
    }
}

// The constant runs of `InstRecord`'s rendering. Each run ends where a
// variable value starts; enum variants and booleans are folded into the
// runs around them, one table per combination.
static OPEN: Literal = Literal::new(b"InstRecord { fetch: ");
static SEP_OPEN: Literal = Literal::new(b", InstRecord { fetch: ");
static DISPATCH: Literal = Literal::new(b", dispatch: ");
static READY: Literal = Literal::new(b", ready: ");
static ISSUE: Literal = Literal::new(b", issue: ");
static COMPLETE: Literal = Literal::new(b", complete: ");
static COMMIT: Literal = Literal::new(b", commit: ");
static CLUSTER: Literal = Literal::new(b", cluster: ");
/// Indexed by `mispredicted as usize * 2 + l1_miss as usize`.
static FLAGS: [Literal; 4] = [
    Literal::new(b", mispredicted: false, l1_miss: false, mem_extra: "),
    Literal::new(b", mispredicted: false, l1_miss: true, mem_extra: "),
    Literal::new(b", mispredicted: true, l1_miss: false, mem_extra: "),
    Literal::new(b", mispredicted: true, l1_miss: true, mem_extra: "),
];
static DB_FRONT_END: Literal = Literal::new(b", dispatch_bound: FrontEnd, ready_bound: ");
static DB_IN_ORDER: Literal = Literal::new(b", dispatch_bound: InOrder, ready_bound: ");
static DB_REDIRECT: Literal = Literal::new(b", dispatch_bound: Redirect(DynIdx(");
static DB_ROB_FULL: Literal = Literal::new(b", dispatch_bound: RobFull(DynIdx(");
static DB_TUPLE_CLOSE: Literal = Literal::new(b")), ready_bound: ");
static DB_STALL_NONE: Literal =
    Literal::new(b", dispatch_bound: SteerStall { freed_by: None }, ready_bound: ");
static DB_STALL_SOME: Literal =
    Literal::new(b", dispatch_bound: SteerStall { freed_by: Some(DynIdx(");
static DB_STALL_SOME_CLOSE: Literal = Literal::new(b")) }, ready_bound: ");
static RB_DISPATCH: Literal = Literal::new(b"Dispatch, commit_bound: ");
static RB_SLOT: Literal = Literal::new(b"Operand { slot: ");
static RB_PRODUCER: Literal = Literal::new(b", producer: DynIdx(");
static RB_FWD: Literal = Literal::new(b"), fwd: ");
static RB_CLOSE: Literal = Literal::new(b" }, commit_bound: ");
/// Indexed by [`commit_bound_index`].
static COMMIT_BOUNDS: [Literal; 3] = [
    Literal::new(b"Complete, steer_cause: "),
    Literal::new(b"InOrder, steer_cause: "),
    Literal::new(b"Bandwidth, steer_cause: "),
];
/// Indexed by `steer_cause.index() * 2 + predicted_critical as usize`.
static STEER: [Literal; 10] = [
    Literal::new(b"Only, predicted_critical: false, loc: "),
    Literal::new(b"Only, predicted_critical: true, loc: "),
    Literal::new(b"Dependence, predicted_critical: false, loc: "),
    Literal::new(b"Dependence, predicted_critical: true, loc: "),
    Literal::new(b"LoadBalance, predicted_critical: false, loc: "),
    Literal::new(b"LoadBalance, predicted_critical: true, loc: "),
    Literal::new(b"NoDeps, predicted_critical: false, loc: "),
    Literal::new(b"NoDeps, predicted_critical: true, loc: "),
    Literal::new(b"Proactive, predicted_critical: false, loc: "),
    Literal::new(b"Proactive, predicted_critical: true, loc: "),
];
/// The most common `loc` (policies without an LoC predictor) with the
/// record's closing brace.
static LOC_ZERO_CLOSE: Literal = Literal::new(b"0.0 }");

const fn commit_bound_index(b: CommitBound) -> usize {
    match b {
        CommitBound::Complete => 0,
        CommitBound::InOrder => 1,
        CommitBound::Bandwidth => 2,
    }
}

/// An FNV-1a state fed the `Debug` byte stream piece by piece.
struct DebugFnv {
    h: u64,
}

impl DebugFnv {
    fn new() -> Self {
        DebugFnv { h: FNV_OFFSET }
    }

    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.h = fnv1a_extend(self.h, bytes);
    }

    #[inline]
    fn lit(&mut self, l: &Literal) {
        let h = self.h;
        self.h = (h & !0xff)
            .wrapping_mul(l.mul)
            .wrapping_add(l.add[(h & 0xff) as usize]);
    }

    /// An unsigned integer's decimal digits, as `{:?}` renders it.
    #[inline]
    fn u64(&mut self, mut v: u64) {
        if v < 10 {
            self.h = (self.h ^ (b'0' + v as u8) as u64).wrapping_mul(FNV_PRIME);
            return;
        }
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        while v > 0 {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.bytes(&buf[i..]);
    }

    #[inline]
    fn dyn_idx(&mut self, p: DynIdx) {
        self.u64(u64::from(p.raw()));
    }

    /// One record's rendering, from `open` (`InstRecord { fetch: `,
    /// optionally preceded by a list separator) to its closing brace.
    fn record(&mut self, r: &InstRecord, open: &Literal, memo: &mut LocMemo) {
        let InstRecord {
            fetch,
            dispatch,
            ready,
            issue,
            complete,
            commit,
            cluster,
            mispredicted,
            l1_miss,
            mem_extra,
            dispatch_bound,
            ready_bound,
            commit_bound,
            steer_cause,
            predicted_critical,
            loc,
        } = *r;
        self.lit(open);
        self.u64(fetch);
        self.lit(&DISPATCH);
        self.u64(dispatch);
        self.lit(&READY);
        self.u64(ready);
        self.lit(&ISSUE);
        self.u64(issue);
        self.lit(&COMPLETE);
        self.u64(complete);
        self.lit(&COMMIT);
        self.u64(commit);
        self.lit(&CLUSTER);
        self.u64(u64::from(cluster));
        self.lit(&FLAGS[mispredicted as usize * 2 + l1_miss as usize]);
        self.u64(u64::from(mem_extra));
        match dispatch_bound {
            DispatchBound::FrontEnd => self.lit(&DB_FRONT_END),
            DispatchBound::InOrder => self.lit(&DB_IN_ORDER),
            DispatchBound::Redirect(p) => {
                self.lit(&DB_REDIRECT);
                self.dyn_idx(p);
                self.lit(&DB_TUPLE_CLOSE);
            }
            DispatchBound::RobFull(p) => {
                self.lit(&DB_ROB_FULL);
                self.dyn_idx(p);
                self.lit(&DB_TUPLE_CLOSE);
            }
            DispatchBound::SteerStall { freed_by: None } => self.lit(&DB_STALL_NONE),
            DispatchBound::SteerStall { freed_by: Some(p) } => {
                self.lit(&DB_STALL_SOME);
                self.dyn_idx(p);
                self.lit(&DB_STALL_SOME_CLOSE);
            }
        }
        match ready_bound {
            ReadyBound::Dispatch => self.lit(&RB_DISPATCH),
            ReadyBound::Operand {
                slot,
                producer,
                fwd,
            } => {
                self.lit(&RB_SLOT);
                self.u64(u64::from(slot));
                self.lit(&RB_PRODUCER);
                self.dyn_idx(producer);
                self.lit(&RB_FWD);
                self.u64(u64::from(fwd));
                self.lit(&RB_CLOSE);
            }
        }
        self.lit(&COMMIT_BOUNDS[commit_bound_index(commit_bound)]);
        self.lit(&STEER[steer_cause.index() * 2 + predicted_critical as usize]);
        if loc.to_bits() == 0 {
            self.lit(&LOC_ZERO_CLOSE);
        } else {
            self.bytes(memo.render_close(loc));
        }
    }
}

impl fmt::Write for DebugFnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Longest `{:?}` of an `f32` (`-1234567900000000.0`, 19 bytes) plus the
/// record's closing ` }`, with room to spare.
const LOC_TEXT: usize = 32;

/// One memoized `loc` rendering.
#[derive(Clone, Copy)]
struct LocSlot {
    /// The value's bit pattern; 0 marks an empty slot (`0.0` itself is
    /// never memoized, it has its own literal).
    bits: u32,
    len: u8,
    text: [u8; LOC_TEXT],
}

/// A direct-mapped memo of `{:?} }` renderings of `loc` values, keyed by
/// bit pattern. A run's `loc` values come from a predictor with few
/// distinct outputs (16 under the default quantized mode), so nearly
/// every lookup hits.
struct LocMemo {
    slots: [LocSlot; 64],
}

impl LocMemo {
    fn new() -> Self {
        LocMemo {
            slots: [LocSlot {
                bits: 0,
                len: 0,
                text: [0; LOC_TEXT],
            }; 64],
        }
    }

    /// The bytes of `format!("{loc:?} }}")`.
    #[inline]
    fn render_close(&mut self, loc: f32) -> &[u8] {
        let bits = loc.to_bits();
        let slot = &mut self.slots[(bits.wrapping_mul(0x9e37_79b9) >> 26) as usize];
        if slot.bits != bits {
            let mut rest = &mut slot.text[..];
            io::Write::write_fmt(&mut rest, format_args!("{loc:?} }}"))
                .expect("an f32 renders in under 30 bytes");
            slot.len = (LOC_TEXT - rest.len()) as u8;
            slot.bits = bits;
        }
        &slot.text[..slot.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SteerCause;
    use crate::result::IlpCensus;
    use ccs_isa::MachineConfig;
    use ccs_trace::fnv1a;

    fn debug_digest(result: &SimResult) -> u64 {
        fnv1a(format!("{result:?}").as_bytes())
    }

    /// The golden corpus's original per-record loop.
    fn debug_records_digest(records: &[InstRecord]) -> u64 {
        let mut h = FNV_OFFSET;
        let mut buf = String::new();
        for r in records {
            buf.clear();
            let _ = write!(buf, "{r:?}");
            h = fnv1a_extend(h, buf.as_bytes());
        }
        h
    }

    fn result_of(records: Vec<InstRecord>) -> SimResult {
        let mut ilp = IlpCensus::default();
        ilp.record(0, 0);
        ilp.record(3, 2);
        ilp.record(3, 1);
        SimResult {
            config: MachineConfig::micro05_baseline(),
            cycles: u64::MAX,
            records,
            mispredicts: 1,
            conditional_branches: 10,
            l1_misses: 0,
            l1_accesses: 12_345_678_901,
            global_values: 99,
            ilp,
            steer_stall_cycles: 7,
        }
    }

    /// Records covering every variant of every bound and steer cause,
    /// both `freed_by` shapes, the integer extremes, every flag
    /// combination and the awkward `f32` renderings.
    fn exhaustive_records() -> Vec<InstRecord> {
        let big = DynIdx::new(u32::MAX);
        let dispatch = [
            DispatchBound::FrontEnd,
            DispatchBound::Redirect(DynIdx::new(7)),
            DispatchBound::InOrder,
            DispatchBound::RobFull(big),
            DispatchBound::SteerStall { freed_by: None },
            DispatchBound::SteerStall {
                freed_by: Some(DynIdx::new(0)),
            },
            DispatchBound::SteerStall {
                freed_by: Some(big),
            },
        ];
        let ready = [
            ReadyBound::Dispatch,
            ReadyBound::Operand {
                slot: 2,
                producer: big,
                fwd: u32::MAX,
            },
            ReadyBound::Operand {
                slot: u8::MAX,
                producer: DynIdx::new(12),
                fwd: 0,
            },
        ];
        let commit = [
            CommitBound::Complete,
            CommitBound::InOrder,
            CommitBound::Bandwidth,
        ];
        let steer = [
            SteerCause::Only,
            SteerCause::Dependence,
            SteerCause::LoadBalance,
            SteerCause::NoDeps,
            SteerCause::Proactive,
        ];
        let locs = [
            0.0,
            -0.0,
            1.0,
            0.4375,
            1e-7,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -1_234_567_900_000_000.0,
            0.1,
        ];
        let cycles = [0, 9, 10, 99, 100, 1_000_003, u64::MAX];
        let mut out = Vec::new();
        let mut k = 0usize;
        for &d in &dispatch {
            for &rb in &ready {
                for &cb in &commit {
                    for &sc in &steer {
                        for flags in 0..8u8 {
                            let c = |n: usize| cycles[(k + n) % cycles.len()];
                            out.push(InstRecord {
                                fetch: c(0),
                                dispatch: c(1),
                                ready: c(2),
                                issue: c(3),
                                complete: c(4),
                                commit: c(5),
                                cluster: [0, 7, u8::MAX][k % 3],
                                mispredicted: flags & 1 != 0,
                                l1_miss: flags & 2 != 0,
                                mem_extra: [0, 300, u32::MAX][k % 3],
                                dispatch_bound: d,
                                ready_bound: rb,
                                commit_bound: cb,
                                steer_cause: sc,
                                predicted_critical: flags & 4 != 0,
                                loc: locs[k % locs.len()],
                            });
                            k += 1;
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn literal_fold_equals_bytewise_fnv() {
        let s = b"Dependence, predicted_critical: true, loc: ";
        let l = Literal::new(s);
        for h in [
            FNV_OFFSET,
            0,
            1,
            0xff,
            0x100,
            u64::MAX,
            0x1234_5678_9abc_def0,
        ] {
            let mut f = DebugFnv { h };
            f.lit(&l);
            assert_eq!(f.h, fnv1a_extend(h, s), "state {h:#x}");
        }
    }

    #[test]
    fn hand_built_records_digest_like_their_debug_rendering() {
        let records = exhaustive_records();
        for (i, r) in records.iter().enumerate() {
            let one = std::slice::from_ref(r);
            assert_eq!(
                records_digest(one),
                debug_records_digest(one),
                "record {i}: {r:?}"
            );
        }
        assert_eq!(records_digest(&records), debug_records_digest(&records));
        let result = result_of(records);
        assert_eq!(result_digest(&result), debug_digest(&result));
    }

    #[test]
    fn empty_results_digest_like_their_debug_rendering() {
        let mut result = result_of(Vec::new());
        assert_eq!(result_digest(&result), debug_digest(&result));
        result.ilp = IlpCensus::default();
        assert_eq!(result_digest(&result), debug_digest(&result));
        assert_eq!(records_digest(&[]), FNV_OFFSET);
    }

    #[test]
    fn loc_memo_survives_slot_collisions() {
        // Far more distinct values than slots: every eviction re-renders.
        let mut records = Vec::new();
        for i in 0..1_000u32 {
            let mut r = InstRecord::empty();
            r.loc = i as f32 / 997.0;
            records.push(r);
        }
        records.extend(records.clone());
        assert_eq!(records_digest(&records), debug_records_digest(&records));
    }
}
