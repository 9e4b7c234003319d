//! `BENCHMARK.json` declares exactly the metrics the benchmark prints,
//! with the same units, in the same order.

use serde::Value;
use sybench::metrics::{per_layer, END_TO_END};

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get_field(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| match (m.get_field("name"), m.get_field("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed {key} entry"),
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), layers);
}
