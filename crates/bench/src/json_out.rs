//! Machine-readable benchmark output.
//!
//! Every bench bin prints a human-readable table to stdout (captured into
//! `results/<bin>.txt` by the harness) and, through this module, writes a
//! structured JSON twin to `results/<bin>.json` so plots and regression
//! checks never have to re-parse the tables. The serializer is hand-rolled
//! — the workspace is offline and carries no serde.
//!
//! Shape:
//!
//! ```json
//! {
//!   "bench": "fig3_latency_a",
//!   "records": [
//!     {"op": "set", "transport": "UCR IB", "cluster": "Cluster A (DDR)",
//!      "size": 4096, "mean_us": 11.9},
//!     ...
//!   ]
//! }
//! ```
//!
//! Records are flat string/number maps; each bin picks the fields that
//! describe its sweep (op, transport, cluster, message size, mean/p50/p99
//! latency, throughput, ...).

use std::path::PathBuf;

/// One field value: a string or a finite number.
#[derive(Clone, Debug)]
enum Field {
    Str(String),
    Num(f64),
    Int(u64),
}

/// One flat record of a benchmark result file.
#[derive(Clone, Debug, Default)]
pub struct Record {
    fields: Vec<(String, Field)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Record {
        Record::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: impl Into<String>) -> Record {
        self.fields
            .push((key.to_string(), Field::Str(value.into())));
        self
    }

    /// Adds a float field. Non-finite values serialize as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Record {
        self.fields.push((key.to_string(), Field::Num(value)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Record {
        self.fields.push((key.to_string(), Field::Int(value)));
        self
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&simnet::trace_export::json_escape(s));
    out.push('"');
}

/// Renders the result document (also used by tests; [`write()`] puts this
/// on disk).
pub fn render(bench: &str, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": ");
    escape(bench, &mut out);
    out.push_str(",\n  \"records\": [\n");
    for (i, rec) in records.iter().enumerate() {
        out.push_str("    {");
        for (j, (k, v)) in rec.fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            escape(k, &mut out);
            out.push_str(": ");
            match v {
                Field::Str(s) => escape(s, &mut out),
                Field::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
                Field::Num(_) => out.push_str("null"),
                Field::Int(n) => out.push_str(&format!("{n}")),
            }
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `results/<bench>.json`; see [`write_file`].
pub fn write(bench: &str, records: &[Record]) {
    write_file(&format!("{bench}.json"), &render(bench, records));
}

/// Writes `results/<name>` (relative to the working directory, creating
/// `results/` if needed) and reports where it landed on stderr, keeping
/// stdout clean for the human-readable tables. IO failures are reported,
/// not fatal — a read-only checkout still runs the bench.
pub fn write_file(name: &str, contents: &str) {
    let path = PathBuf::from("results").join(name);
    let res = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents));
    match res {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_parseable_json() {
        let recs = vec![
            Record::new()
                .str("op", "get")
                .str("transport", "UCR IB")
                .int("size", 4096)
                .num("mean_us", 11.875),
            Record::new().str("op", "set").num("bad", f64::NAN),
        ];
        let doc = render("fig3_latency_a", &recs);
        let parsed = simnet::trace_export::parse_json(&doc).expect("valid JSON");
        assert_eq!(
            parsed.get("bench").and_then(|b| b.as_str()),
            Some("fig3_latency_a")
        );
        let records = parsed
            .get("records")
            .and_then(|r| r.as_arr())
            .expect("records array");
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0].get("mean_us").and_then(|v| v.as_f64()),
            Some(11.875)
        );
        assert_eq!(
            records[0].get("size").and_then(|v| v.as_f64()),
            Some(4096.0)
        );
        // Non-finite numbers degrade to null, keeping the file parseable.
        assert!(records[1].get("bad").is_some());
        assert!(records[1].get("bad").and_then(|v| v.as_f64()).is_none());
    }

    #[test]
    fn escapes_strings() {
        let recs = vec![Record::new().str("name", "a\"b\\c\nd")];
        let doc = render("x", &recs);
        let parsed = simnet::trace_export::parse_json(&doc).expect("valid JSON");
        let rec = &parsed.get("records").and_then(|r| r.as_arr()).unwrap()[0];
        assert_eq!(rec.get("name").and_then(|v| v.as_str()), Some("a\"b\\c\nd"));
    }
}
