//! Manifest serialization, hand-rolled like everything in this crate: a
//! JSON string escaper and a deterministic writer for the metric
//! manifest.

use std::collections::BTreeMap;

use crate::rules::MetricSite;

/// JSON string escape (control chars, quote, backslash).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes the metric manifest: every registration pattern with its
/// kind and owning layer, deduplicated on (name, kind), sorted. The
/// committed copy at `results/metric_manifest.json` must byte-match
/// this output (`rmc-lint --check` enforces it).
pub fn write_manifest(sites: &[MetricSite]) -> String {
    // (pattern, kind) → (layer, first file declaring it).
    let mut dedup: BTreeMap<(String, &'static str), (String, String)> = BTreeMap::new();
    let mut sorted: Vec<&MetricSite> = sites.iter().collect();
    sorted.sort();
    for s in sorted {
        dedup
            .entry((s.pattern.clone(), s.kind))
            .or_insert_with(|| (s.layer.clone(), s.file.clone()));
    }
    let mut out = String::from("{\n  \"version\": 1,\n  \"metrics\": [\n");
    let n = dedup.len();
    for (i, ((name, kind), (layer, file))) in dedup.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"kind\": \"{}\", \"layer\": \"{}\", \"file\": \"{}\" }}{}\n",
            esc(name),
            kind,
            esc(layer),
            esc(file),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_dedups_and_sorts() {
        let site = |pattern: &str, kind: &'static str, layer: &str, file: &str| MetricSite {
            pattern: pattern.to_string(),
            kind,
            layer: layer.to_string(),
            file: file.to_string(),
            line: 1,
        };
        let sites = vec![
            site(
                "mc.node*.wakes",
                "counter",
                "mc",
                "crates/core/src/server.rs",
            ),
            site("bench.tps", "counter", "bench", "crates/bench/src/lib.rs"),
            site(
                "mc.node*.wakes",
                "counter",
                "mc",
                "crates/core/src/server.rs",
            ),
        ];
        let text = write_manifest(&sites);
        assert_eq!(text.matches("mc.node*.wakes").count(), 1);
        assert!(text.find("bench.tps").unwrap() < text.find("mc.node*.wakes").unwrap());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
