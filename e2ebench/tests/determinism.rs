//! Self-tests of the benchmark at a tiny size: simulated metrics repeat
//! bit for bit for one seed and move with the seed, and every workload
//! prints exactly the metrics `BENCHMARK.json` names, with its units.

use gpm_e2ebench::report::Source;
use gpm_e2ebench::{Outcome, Size, Workload};

fn run(w: Workload, seed: u64, traced: bool) -> Outcome {
    w.run(Size::Tiny, seed, 0.0, traced)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()))
}

#[test]
fn sim_metrics_repeat_for_a_seed_and_move_with_it() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let a = run(w, 1, traced).metrics.sim_only();
            let b = run(w, 1, traced).metrics.sim_only();
            let c = run(w, 2, traced).metrics.sim_only();
            assert!(!a.is_empty());
            assert_eq!(
                a,
                b,
                "{} traced={traced}: same seed, different sim",
                w.name()
            );
            assert_ne!(
                a,
                c,
                "{} traced={traced}: the seed changed nothing",
                w.name()
            );
        }
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics() {
    let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let end_to_end = listed(json, "end_to_end");
    let per_layer = listed(json, "per_layer");
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        for (traced, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run(w, 3, traced);
            let got: Vec<(String, String)> = out
                .metrics
                .0
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(got_sorted, want_sorted, "{} traced={traced}", w.name());
            assert!(out.attempted > 0);
            if traced {
                assert!(
                    !out.spans.is_empty(),
                    "{}: traced run kept no spans",
                    w.name()
                );
                assert!(out.sim.is_some());
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in Workload::ALL {
        for m in &run(w, 4, false).metrics.0 {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
            if m.name.starts_with("sim_") || m.name == "served_frac" {
                assert_eq!(m.source, Source::Sim, "{}", m.name);
            }
        }
    }
}
