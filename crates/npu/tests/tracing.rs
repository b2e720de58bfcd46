//! The tracing/attribution contract: tracing is an *observer* — a traced
//! run reports exactly what an untraced run reports — the attribution
//! rollup covers every cycle of the critical path, the emitted Chrome
//! trace is well-formed JSON, and the trace for a fixed micro-graph is
//! byte-stable (golden file).

use tandem_model::{zoo, Graph, GraphBuilder, Padding};
use tandem_npu::{ChromeTraceSink, Npu, NpuConfig, NullSink, TileGranularity};

fn zoo_models() -> Vec<(&'static str, Graph)> {
    vec![
        ("vgg16", zoo::vgg16()),
        ("resnet50", zoo::resnet50()),
        ("yolov3", zoo::yolov3()),
        ("mobilenetv2", zoo::mobilenetv2()),
        ("efficientnet_b0", zoo::efficientnet_b0()),
        ("bert_base", zoo::bert_base(128)),
        ("gpt2", zoo::gpt2(128)),
    ]
}

/// A conv → relu → max-pool micro model, small enough that its full
/// trace (controller handshakes, per-tile spans, embedded tile-program
/// timeline) stays a few kilobytes.
fn micro_graph() -> Graph {
    let mut b = GraphBuilder::new("micro", 2024);
    let x = b.input("x", [1, 3, 8, 8]);
    let c = b.conv(x, 4, 3, 1, Padding::Same);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    b.output(p);
    b.finish()
}

/// Every cycle of the end-to-end latency lands in exactly one
/// attribution bucket, for every zoo model and both tile granularities.
/// (`compose_block` debug-asserts this per block; this test keeps the
/// invariant hot in release builds and across the whole zoo.)
#[test]
fn attribution_buckets_sum_to_total_cycles_for_every_zoo_model() {
    for granularity in [TileGranularity::Tile, TileGranularity::Layer] {
        let mut cfg = NpuConfig::paper();
        cfg.granularity = granularity;
        let npu = Npu::new(cfg);
        for (name, graph) in zoo_models() {
            let r = npu.run(&graph);
            assert_eq!(
                r.attribution.total(),
                r.total_cycles,
                "{name} ({granularity:?}): attribution must cover the critical path exactly\n{}",
                r.attribution
            );
            assert!(
                r.attribution.gemm_compute + r.attribution.tandem_compute > 0,
                "{name}: a real model must attribute some compute"
            );
        }
    }
}

/// Tracing must not perturb the model: a run observed through a
/// recording sink produces the same report (full architectural equality,
/// attribution included) as `Npu::run`, and the no-op sink too. The plain
/// run composes repeated blocks from their class's parts; the traced run
/// computes every block.
#[test]
fn traced_run_reports_exactly_what_plain_run_reports() {
    let npu = Npu::new(NpuConfig::paper());
    for (name, graph) in [
        ("resnet50", zoo::resnet50()),
        ("mobilenetv2", zoo::mobilenetv2()),
        ("bert_base", zoo::bert_base(32)),
    ] {
        let plain = npu.run(&graph);
        let mut sink = ChromeTraceSink::new();
        let traced = npu.run_traced(&graph, &mut sink);
        assert_eq!(plain, traced, "{name}: tracing changed the report");
        assert!(plain.stats.reused_blocks > 0, "{name}: no block reused");
        assert_eq!(traced.stats.reused_blocks, 0, "{name}: a traced run reused");
        assert!(!sink.is_empty(), "{name}: recording sink saw no events");
        let null = npu.run_traced(&graph, &mut NullSink);
        assert_eq!(plain, null, "{name}: NullSink run diverged");
    }
}

/// The emitted trace is valid JSON of the Chrome trace-event shape —
/// what `chrome://tracing` and Perfetto will actually load.
#[test]
fn chrome_trace_json_is_well_formed() {
    let npu = Npu::new(NpuConfig::paper());
    let mut sink = ChromeTraceSink::new();
    npu.run_traced(&zoo::mobilenetv2(), &mut sink);
    let json = sink.to_json();
    let value = json::parse(&json);
    let top = match value {
        json::Value::Object(pairs) => pairs,
        other => panic!("top level must be an object, got {other:?}"),
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let json::Value::Array(events) = events else {
        panic!("traceEvents must be an array");
    };
    assert!(
        events.len() > 100,
        "expected a rich trace, got {} events",
        events.len()
    );
    for ev in events {
        let json::Value::Object(fields) = ev else {
            panic!("every event must be an object");
        };
        let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v);
        let json::Value::String(ph) = get("ph").expect("event phase") else {
            panic!("ph must be a string");
        };
        assert!(
            matches!(ph.as_str(), "X" | "i" | "C" | "M"),
            "unexpected phase {ph}"
        );
        if ph != "M" {
            assert!(get("ts").is_some(), "non-metadata events carry a timestamp");
        }
    }
}

/// Byte-stable golden trace for the 3-op micro graph. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p tandem-npu --test tracing`.
#[test]
fn micro_graph_trace_matches_golden_bytes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_micro.trace.json");
    let npu = Npu::uncached(NpuConfig::paper());
    let mut sink = ChromeTraceSink::new();
    let report = npu.run_traced(&micro_graph(), &mut sink);
    assert_eq!(report.attribution.total(), report.total_cycles);
    let json = sink.to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden trace missing — regenerate with UPDATE_GOLDEN=1 cargo test -p tandem-npu --test tracing",
    );
    assert_eq!(
        json, golden,
        "micro-graph trace changed byte-for-byte; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// `Npu::stats()` + `ExecStats::delta` isolate one batch's cache
/// activity even though the underlying counters are cumulative.
#[test]
fn exec_stats_delta_isolates_a_batch() {
    let npu = Npu::new(NpuConfig::paper());
    let graph = zoo::mobilenetv2();
    npu.run(&graph); // populate caches (counters now non-zero)

    let before = npu.stats();
    assert!(before.lookups() > 0, "warm-up must have counted lookups");
    npu.run(&graph);
    let delta = npu.stats().delta(&before);
    assert!(delta.lookups() > 0, "second run must look up caches");
    assert_eq!(delta.sim_misses, 0, "warm run must hit the sim cache");
    assert_eq!(
        delta.compile_misses, 0,
        "warm run must hit the compile cache"
    );

    // A stale (larger) baseline degrades to zeros instead of wrapping.
    let zero = before.delta(&npu.stats());
    assert_eq!(zero.lookups(), 0);
}

/// Minimal JSON parser for the well-formedness check — the repo takes no
/// external dependencies, and golden-byte testing alone can't prove the
/// writer balances its brackets on *new* traces.
mod json {
    #[derive(Debug)]
    #[allow(dead_code)] // payloads exist to be Debug-printed on failure
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Value {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing garbage after JSON document");
        v
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Value {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Value::String(string(b, pos)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            _ => number(b, pos),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Value {
        assert!(
            b[*pos..].starts_with(word.as_bytes()),
            "bad literal at {pos}"
        );
        *pos += word.len();
        v
    }

    fn number(b: &[u8], pos: &mut usize) -> Value {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).unwrap();
        Value::Number(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?} at {start}")),
        )
    }

    fn string(b: &[u8], pos: &mut usize) -> String {
        assert_eq!(b[*pos], b'"');
        *pos += 1;
        let mut out = String::new();
        loop {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return out;
                }
                b'\\' => {
                    *pos += 1;
                    out.push(b[*pos] as char);
                    *pos += 1;
                }
                c => {
                    out.push(c as char);
                    *pos += 1;
                }
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Value {
        *pos += 1; // [
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b[*pos] == b']' {
            *pos += 1;
            return Value::Array(items);
        }
        loop {
            items.push(value(b, pos));
            skip_ws(b, pos);
            match b[*pos] {
                b',' => *pos += 1,
                b']' => {
                    *pos += 1;
                    return Value::Array(items);
                }
                c => panic!("expected ',' or ']' at {pos}, got {:?}", c as char),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Value {
        *pos += 1; // {
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b[*pos] == b'}' {
            *pos += 1;
            return Value::Object(pairs);
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos);
            skip_ws(b, pos);
            assert_eq!(b[*pos], b':', "expected ':' at {pos}");
            *pos += 1;
            pairs.push((key, value(b, pos)));
            skip_ws(b, pos);
            match b[*pos] {
                b',' => *pos += 1,
                b'}' => {
                    *pos += 1;
                    return Value::Object(pairs);
                }
                c => panic!("expected ',' or '}}' at {pos}, got {:?}", c as char),
            }
        }
    }
}
