//! VCD (Value Change Dump) export of simulation results.
//!
//! Writes the waveforms of a [`SimResult`] in the classic
//! IEEE-1364 VCD format, so launches, hazards and fault effects can be
//! inspected in any waveform viewer (GTKWave etc.). Time is emitted in
//! femtoseconds (`timescale 1fs`) so picosecond-fraction transition times
//! survive the integer quantization.
//!
//! # Example
//!
//! ```
//! use fastmon_netlist::library;
//! use fastmon_sim::{vcd, SimEngine, Stimulus};
//! use fastmon_timing::{DelayAnnotation, DelayModel};
//!
//! let circuit = library::c17();
//! let annot = DelayAnnotation::nominal(&circuit, &DelayModel::nangate45_like());
//! let engine = SimEngine::new(&circuit, &annot);
//! let stim = Stimulus::from_fn(&circuit, |_| (false, true));
//! let result = engine.simulate(&stim);
//! let text = vcd::to_string(&circuit, &result);
//! assert!(text.contains("$timescale 1fs $end"));
//! assert!(text.contains("N22"));
//! ```

use std::fmt::Write as _;

use fastmon_netlist::Circuit;
use fastmon_timing::Time;

use crate::SimResult;

/// Femtoseconds per picosecond (the toolkit's native unit).
const FS_PER_PS: f64 = 1000.0;

/// Serializes every net's waveform as VCD text.
#[must_use]
pub fn to_string(circuit: &Circuit, result: &SimResult) -> String {
    let nets: Vec<_> = circuit.node_ids().collect();
    to_string_filtered(circuit, result, &nets)
}

/// Serializes only the given nets (in the given order) as VCD text.
///
/// # Panics
///
/// Panics if a net id is out of range for the circuit.
#[must_use]
pub fn to_string_filtered(
    circuit: &Circuit,
    result: &SimResult,
    nets: &[fastmon_netlist::NodeId],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date fastmon export $end");
    let _ = writeln!(out, "$version fastmon-sim $end");
    let _ = writeln!(out, "$timescale 1fs $end");
    let _ = writeln!(out, "$scope module {} $end", sanitize(circuit.name()));
    for (k, &id) in nets.iter().enumerate() {
        let _ = writeln!(
            out,
            "$var wire 1 {} {} $end",
            code(k),
            sanitize(circuit.node(id).name())
        );
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // initial values
    let _ = writeln!(out, "$dumpvars");
    for (k, &id) in nets.iter().enumerate() {
        let _ = writeln!(out, "{}{}", u8::from(result.wave(id).initial()), code(k));
    }
    let _ = writeln!(out, "$end");

    // merge all transitions into one time-ordered stream
    let mut events: Vec<(u64, usize, bool)> = Vec::new();
    for (k, &id) in nets.iter().enumerate() {
        let wave = result.wave(id);
        let mut value = wave.initial();
        for &t in wave.transitions() {
            value = !value;
            events.push((quantize(t), k, value));
        }
    }
    events.sort_by_key(|&(t, k, _)| (t, k));
    let mut last_time = None;
    for (t, k, v) in events {
        if last_time != Some(t) {
            let _ = writeln!(out, "#{t}");
            last_time = Some(t);
        }
        let _ = writeln!(out, "{}{}", u8::from(v), code(k));
    }
    out
}

/// Quantizes a picosecond time to integer femtoseconds.
fn quantize(t: Time) -> u64 {
    let fs = (t * FS_PER_PS).round();
    if fs <= 0.0 {
        0
    } else {
        fs as u64
    }
}

/// Short printable VCD identifier codes (base-94 over `!`..`~`).
fn code(mut k: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (k % 94) as u8) as char);
        k /= 94;
        if k == 0 {
            break;
        }
    }
    s
}

/// VCD identifiers must not contain whitespace.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimEngine, Stimulus};
    use fastmon_netlist::library;
    use fastmon_timing::{DelayAnnotation, DelayModel};

    fn sample() -> (fastmon_netlist::Circuit, SimResult) {
        let c = library::s27();
        let annot = DelayAnnotation::nominal(&c, &DelayModel::nangate45_like());
        let engine = SimEngine::new(&c, &annot);
        let g0 = c.find("G0").unwrap();
        let stim = Stimulus::from_fn(&c, |id| (false, id == g0));
        let result = engine.simulate(&stim);
        (c, result)
    }

    #[test]
    fn header_and_vars_present() {
        let (c, r) = sample();
        let text = to_string(&c, &r);
        assert!(text.contains("$timescale 1fs $end"));
        assert!(text.contains("$enddefinitions $end"));
        for (_, node) in c.iter() {
            assert!(text.contains(node.name()), "{} missing", node.name());
        }
    }

    #[test]
    fn timestamps_are_monotone() {
        let (c, r) = sample();
        let text = to_string(&c, &r);
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(ts) = line.strip_prefix('#') {
                let t: u64 = ts.parse().expect("integer timestamp");
                assert!(t >= last, "timestamps must not decrease");
                last = t;
            }
        }
        assert!(last > 0, "the launch produced transitions");
    }

    #[test]
    fn event_counts_match_waveforms() {
        let (c, r) = sample();
        let nets: Vec<_> = c.node_ids().collect();
        let text = to_string_filtered(&c, &r, &nets);
        let total_transitions: usize = nets.iter().map(|&id| r.wave(id).transitions().len()).sum();
        // value-change lines = initial dump (one per net) + transitions
        let change_lines = text
            .lines()
            .filter(|l| l.starts_with('0') || l.starts_with('1'))
            .count();
        assert_eq!(change_lines, nets.len() + total_transitions);
    }

    #[test]
    fn codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..500 {
            let c = code(k);
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
            assert!(seen.insert(c), "duplicate code for {k}");
        }
    }
}
