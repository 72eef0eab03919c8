//! Structured comparison of two simulation results.

use ccs_sim::SimResult;

/// How many mismatch lines to report before truncating. A differential
/// failure needs enough context to localize the divergence, not a dump
/// of every downstream consequence.
const MAX_REPORTED: usize = 8;

/// Compares an engine result against an oracle result field by field and
/// returns one human-readable line per mismatch (empty = identical).
///
/// Every timing-relevant quantity is compared: total cycles, the
/// aggregate counters, the ILP census, and the per-instruction event
/// times, placements, flags and `ready_bound` (which policies read at
/// commit). The engine's other binding-constraint diagnostics
/// (`dispatch_bound`, `commit_bound`) are *not* compared — the oracle
/// does not reconstruct them.
pub fn diff_results(engine: &SimResult, oracle: &SimResult) -> Vec<String> {
    let mut out = Vec::new();
    let mut mismatch = |line: String| {
        if out.len() < MAX_REPORTED {
            out.push(line);
        } else if out.len() == MAX_REPORTED {
            out.push("... further mismatches suppressed".to_string());
        }
    };

    macro_rules! cmp {
        ($field:ident) => {
            if engine.$field != oracle.$field {
                mismatch(format!(
                    concat!(stringify!($field), ": engine {:?} vs oracle {:?}"),
                    engine.$field, oracle.$field
                ));
            }
        };
    }
    cmp!(cycles);
    cmp!(mispredicts);
    cmp!(conditional_branches);
    cmp!(l1_misses);
    cmp!(l1_accesses);
    cmp!(global_values);
    cmp!(steer_stall_cycles);

    if engine.ilp != oracle.ilp {
        let summarize = |ilp: &ccs_sim::IlpCensus| {
            let (mut cycles, mut issued) = (0u64, 0.0f64);
            for (_, c, mean) in ilp.series() {
                cycles += c;
                issued += mean * c as f64;
            }
            (cycles, issued.round() as u64, ilp.max_available())
        };
        let (ec, ei, em) = summarize(&engine.ilp);
        let (oc, oi, om) = summarize(&oracle.ilp);
        mismatch(format!(
            "ilp census: engine (cycles {ec}, issued {ei}, max avail {em}) \
             vs oracle (cycles {oc}, issued {oi}, max avail {om})",
        ));
    }

    if engine.records.len() != oracle.records.len() {
        mismatch(format!(
            "record count: engine {} vs oracle {}",
            engine.records.len(),
            oracle.records.len()
        ));
        return out;
    }
    for (i, (e, o)) in engine.records.iter().zip(&oracle.records).enumerate() {
        let mut fields = Vec::new();
        macro_rules! rcmp {
            ($field:ident) => {
                if e.$field != o.$field {
                    fields.push(format!(
                        concat!(stringify!($field), " {:?} vs {:?}"),
                        e.$field, o.$field
                    ));
                }
            };
        }
        rcmp!(fetch);
        rcmp!(dispatch);
        rcmp!(ready);
        rcmp!(issue);
        rcmp!(complete);
        rcmp!(commit);
        rcmp!(cluster);
        rcmp!(mispredicted);
        rcmp!(l1_miss);
        rcmp!(mem_extra);
        rcmp!(ready_bound);
        rcmp!(steer_cause);
        rcmp!(predicted_critical);
        if e.loc.to_bits() != o.loc.to_bits() {
            fields.push(format!("loc {:?} vs {:?}", e.loc, o.loc));
        }
        if !fields.is_empty() {
            mismatch(format!("inst {i}: {}", fields.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_sim::policies::LeastLoaded;
    use ccs_trace::Benchmark;

    #[test]
    fn identical_results_diff_clean() {
        let trace = Benchmark::Gzip.generate(3, 400);
        let cfg = ccs_isa::MachineConfig::micro05_baseline();
        let a = ccs_sim::simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        let b = ccs_sim::simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        assert!(diff_results(&a, &b).is_empty());
    }

    #[test]
    fn tampering_is_reported_and_truncated() {
        let trace = Benchmark::Gzip.generate(3, 400);
        let cfg = ccs_isa::MachineConfig::micro05_baseline();
        let a = ccs_sim::simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        let mut b = a.clone();
        b.cycles += 1;
        for r in &mut b.records {
            r.issue += 1;
        }
        let diff = diff_results(&a, &b);
        assert!(diff[0].starts_with("cycles:"), "{diff:?}");
        assert_eq!(diff.len(), MAX_REPORTED + 1);
        assert_eq!(diff.last().unwrap(), "... further mismatches suppressed");
    }
}
