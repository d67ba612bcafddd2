//! Renderers for the two output sinks: human-readable stderr and Chrome
//! `trace_event` JSON (Perfetto / `chrome://tracing`).

use crate::json::Json;
use crate::record::Record;
use crate::tree::{TraceNode, TraceTree};
use std::fmt::Write as _;
use std::sync::Arc;

fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// ` key=value` per attribute; strings print bare, floats with 3 decimals,
/// other values as JSON.
fn fmt_attrs(attrs: &[(String, Json)]) -> String {
    let mut out = String::new();
    for (key, value) in attrs {
        let _ = match value {
            Json::Str(text) => write!(out, " {key}={text}"),
            Json::Float(x) => write!(out, " {key}={x:.3}"),
            value => write!(out, " {key}={value}"),
        };
    }
    out
}

fn render_node(node: &TraceNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match node.dur_ns {
        Some(dur) => {
            let _ = writeln!(
                out,
                "{} ({}){}",
                node.name,
                fmt_dur(dur),
                fmt_attrs(&node.attrs)
            );
        }
        None => {
            let _ = writeln!(out, "· {}{}", node.name, fmt_attrs(&node.attrs));
        }
    }
    for child in &node.children {
        render_node(child, depth + 1, out);
    }
}

/// The `Sink::Human` rendering: an indented span tree (durations and
/// attributes inline, events marked `·`) followed by the counter registry.
pub(crate) fn render_human(tree: &TraceTree) -> String {
    let mut out = String::from("trace:\n");
    for root in &tree.roots {
        render_node(root, 1, &mut out);
    }
    if !tree.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &tree.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    out
}

/// Microseconds, the `ts`/`dur` unit of the `trace_event` format.
fn micros(ns: u64) -> Json {
    Json::Float(ns as f64 / 1e3)
}

/// The `Sink::Chrome` rendering: a `trace_event` document. Spans become
/// complete (`"ph":"X"`) events, instants become `"ph":"i"`, each task label
/// becomes a named `tid` row, and counters are appended as `"ph":"C"`
/// samples — drop the file on <https://ui.perfetto.dev> to browse it.
pub(crate) fn render_chrome(records: Vec<Record>, counters: &[(String, u64)]) -> String {
    // Stable tid per task label, in first-appearance order of the sorted
    // record stream (so numbering is deterministic too).
    let mut tids: Vec<Arc<str>> = Vec::new();
    for record in &records {
        if !tids.contains(&record.task) {
            tids.push(record.task.clone());
        }
    }
    let mut events: Vec<Json> = tids
        .iter()
        .enumerate()
        .map(|(tid, task)| {
            Json::object([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::Int(1)),
                ("tid", Json::from(tid)),
                ("args", Json::object([("name", Json::str(&**task))])),
            ])
        })
        .collect();
    let mut last_ns = 0u64;
    for record in records {
        last_ns = last_ns.max(record.start_ns + record.dur_ns.unwrap_or(0));
        let tid = tids
            .iter()
            .position(|task| *task == record.task)
            .unwrap_or(0);
        let (ph, extent) = match record.dur_ns {
            Some(dur) => ("X", ("dur", micros(dur))),
            None => ("i", ("s", Json::str("t"))),
        };
        events.push(Json::object([
            ("name", Json::str(record.name)),
            ("cat", Json::str("tmr")),
            ("ph", Json::str(ph)),
            ("ts", micros(record.start_ns)),
            extent,
            ("pid", Json::Int(1)),
            ("tid", Json::from(tid)),
            ("args", Json::object(record.attrs)),
        ]));
    }
    events.extend(counters.iter().map(|(name, value)| {
        Json::object([
            ("name", Json::str(name)),
            ("ph", Json::str("C")),
            ("ts", micros(last_ns)),
            ("pid", Json::Int(1)),
            ("args", Json::object([("value", Json::from(*value))])),
        ])
    }));
    let doc = Json::object([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::borrow::Cow;

    fn sample() -> Vec<Record> {
        vec![
            Record {
                name: Cow::Borrowed("flow"),
                task: Arc::from("main"),
                seq: 0,
                id: 1,
                parent: 0,
                start_ns: 100,
                dur_ns: Some(5_000),
                attrs: vec![(Cow::Borrowed("design"), Json::str("fir \"8\""))],
            },
            Record {
                name: Cow::Borrowed("cache.hit"),
                task: Arc::from("shard-00"),
                seq: 0,
                id: 0,
                parent: 1,
                start_ns: 400,
                dur_ns: None,
                attrs: vec![(Cow::Borrowed("stage"), Json::str("route"))],
            },
        ]
    }

    fn field<'a>(event: &'a Json, key: &str) -> &'a str {
        event.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn chrome_sink_round_trips_every_attribute_kind() {
        let attrs = vec![
            (Cow::Borrowed("ok"), Json::from(true)),
            (Cow::Borrowed("count"), Json::from(42u64)),
            (Cow::Borrowed("delta"), Json::Int(-3)),
            (Cow::Borrowed("rate"), Json::from(0.125)),
            (Cow::Borrowed("whole"), Json::from(2.0)),
            (Cow::Borrowed("nan"), Json::from(f64::NAN)),
            (Cow::Borrowed("text"), Json::str("q\"n\nc\u{1}e\u{1f600}")),
        ];
        let mut records = sample();
        for record in &mut records {
            record.attrs = attrs.clone();
        }
        let rendered = render_chrome(records, &[("faults".to_string(), 7)]);
        let doc = parse(&rendered).expect("chrome trace must be well-formed JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let phases: Vec<&str> = events.iter().map(|event| field(event, "ph")).collect();
        assert_eq!(phases, ["M", "M", "X", "i", "C"]);

        // NaN renders as `null`, and a whole-number float as an integer.
        let args = Json::object(attrs.into_iter().map(|(key, value)| match value {
            Json::Float(x) if x.is_nan() => (key, Json::Null),
            Json::Float(x) if x.fract() == 0.0 => (key, Json::Int(x as i64)),
            value => (key, value),
        }));
        for (event, tid) in events[2..4].iter().zip([0, 1]) {
            assert_eq!(event.get("args"), Some(&args));
            let whole = event.get("args").and_then(|args| args.get("whole"));
            assert_eq!(whole.and_then(Json::as_f64), Some(2.0));
            assert_eq!(event.get("tid").and_then(Json::as_u64), Some(tid));
        }
        assert_eq!(events[2].get("dur").and_then(Json::as_f64), Some(5.0));
        assert_eq!(field(&events[3], "s"), "t");
        assert_eq!(field(events[1].get("args").unwrap(), "name"), "shard-00");
        assert_eq!(field(&events[4], "name"), "faults");
        assert_eq!(
            events[4].get("args"),
            Some(&Json::object([("value", Json::Int(7))]))
        );
        assert_eq!(events[4].get("ts").and_then(Json::as_f64), Some(5.1));
    }

    #[test]
    fn human_sink_indents_children_and_lists_counters() {
        let mut records = sample();
        records[0].attrs.extend([
            (Cow::Borrowed("rate"), Json::from(2.0)),
            (Cow::Borrowed("per_sec"), Json::from(f64::INFINITY)),
        ]);
        let tree = TraceTree::build(records, vec![("faults".to_string(), 7)]);
        let rendered = render_human(&tree);
        assert!(rendered.contains("  flow (5.0"));
        assert!(rendered.contains("design=fir \"8\" rate=2.000 per_sec=inf"));
        assert!(rendered.contains("    · cache.hit stage=route"));
        assert!(rendered.contains("  faults = 7"));
    }
}
