//! A minimal, dependency-free JSON value and its compact printer.
//! [`EvalProfile`](crate::EvalProfile) and
//! [`Explanation`](crate::Explanation) serialize through it, and the
//! `mdtw-explain` binary writes its `--profile` file with it. The layer
//! is write-only: nothing in the workspace reads JSON back, so the
//! rendered bytes are pinned by golden tests and any external JSON parser
//! checks them.

use crate::eval::EvalStats;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Compact rendering (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Version stamp of every machine-readable envelope the `mdtw-explain`
/// binary emits (the per-file objects of its `--profile` output file).
/// Bump it when a field is renamed, removed, or changes meaning —
/// additive fields keep the version.
pub const JSON_SCHEMA_VERSION: u64 = 2;

/// Serializes an [`EvalStats`] counter block; the field names match the
/// struct fields.
pub fn eval_stats_json(stats: &EvalStats) -> Json {
    Json::Obj(vec![
        ("firings".into(), Json::Num(stats.firings as f64)),
        ("facts".into(), Json::Num(stats.facts as f64)),
        ("rounds".into(), Json::Num(stats.rounds as f64)),
        ("index_probes".into(), Json::Num(stats.index_probes as f64)),
        ("full_scans".into(), Json::Num(stats.full_scans as f64)),
        (
            "tuples_considered".into(),
            Json::Num(stats.tuples_considered as f64),
        ),
        (
            "negative_checks".into(),
            Json::Num(stats.negative_checks as f64),
        ),
        ("strata".into(), Json::Num(stats.strata as f64)),
        ("limit_checks".into(), Json::Num(stats.limit_checks as f64)),
        ("fuel_spent".into(), Json::Num(stats.fuel_spent as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_stats_json_keeps_the_field_order() {
        let stats = EvalStats {
            firings: 1,
            facts: 2,
            rounds: 3,
            index_probes: 4,
            full_scans: 5,
            tuples_considered: 6,
            negative_checks: 7,
            strata: 8,
            limit_checks: 9,
            fuel_spent: 10,
            ..EvalStats::default()
        };
        assert_eq!(
            eval_stats_json(&stats).render(),
            r#"{"firings":1,"facts":2,"rounds":3,"index_probes":4,"full_scans":5,"tuples_considered":6,"negative_checks":7,"strata":8,"limit_checks":9,"fuel_spent":10}"#
        );
    }
}
