//! JSON rendering of tuning outcomes — hand-rolled, dependency-free,
//! and split into a byte-deterministic core (the committed trajectory
//! goldens diff against it) and an optional timing section (wall-times,
//! which legitimately vary run to run).

use crate::search::TuneOutcome;
use crate::space::SearchSpace;
use std::fmt::Write as _;

/// Renders one outcome as a JSON object, indented by `indent` spaces.
/// With `timing` off the output is a pure function of
/// `(graph, NPU config, options)` — byte-identical across runs, hosts
/// and `jobs` values.
pub fn outcome_json(out: &TuneOutcome, space: &SearchSpace, indent: usize, timing: bool) -> String {
    let pad = " ".repeat(indent);
    let mut s = String::new();
    let _ = writeln!(s, "{pad}{{");
    let _ = writeln!(s, "{pad}  \"model\": \"{}\",", out.model);
    let _ = writeln!(s, "{pad}  \"seed\": {},", out.seed);
    let _ = writeln!(
        s,
        "{pad}  \"sites\": {}, \"tunable_sites\": {}, \"space_log2\": {:.1},",
        out.sites, out.tunable_sites, out.space_log2
    );
    let _ = writeln!(
        s,
        "{pad}  \"baseline_cycles\": {}, \"best_cycles\": {}, \"reduction_pct\": {:.2},",
        out.baseline_cycles,
        out.best_cycles,
        out.reduction_pct()
    );
    let _ = writeln!(
        s,
        "{pad}  \"evaluated\": {}, \"rejected\": {},",
        out.evaluated, out.rejected
    );
    let _ = writeln!(s, "{pad}  \"best_schedule\": [");
    let rendered = out.best.render(space.sites());
    for (i, line) in rendered.iter().enumerate() {
        let _ = writeln!(
            s,
            "{pad}    \"{line}\"{}",
            if i + 1 < rendered.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "{pad}  ],");
    let _ = write!(s, "{pad}  \"generations\": [");
    for (i, g) in out.generations.iter().enumerate() {
        let _ = write!(
            s,
            "\n{pad}    {{\"gen\": {}, \"best\": {}, \"median\": {}, \"evaluated\": {}, \
             \"fresh\": {}}}{}",
            g.generation,
            g.best_cycles,
            g.median_cycles,
            g.evaluated,
            g.fresh,
            if i + 1 < out.generations.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(s, "\n{pad}  ]{}", if timing { "," } else { "" });
    if timing {
        let _ = writeln!(
            s,
            "{pad}  \"timing\": {{\"wall_s\": {:.6}, \"verify_wall_s\": {:.6}, \
             \"sim_wall_s\": {:.6}, \"bookkeeping_wall_s\": {:.6}}}",
            out.wall_s,
            out.verify_wall_s,
            out.sim_wall_s,
            out.bookkeeping_wall_s()
        );
    }
    let _ = write!(s, "{pad}}}");
    s
}

/// The deterministic trajectory document for a set of outcomes — the
/// format the committed goldens pin.
pub fn trajectory_json(outcomes: &[(TuneOutcome, SearchSpace)]) -> String {
    let mut s = String::from("{\n  \"models\": [\n");
    for (i, (out, space)) in outcomes.iter().enumerate() {
        s.push_str(&outcome_json(out, space, 4, false));
        s.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
