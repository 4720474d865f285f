//! Results pinned in `expected.json`: row count and order-independent
//! checksum of each Table-1 experiment at each scale. When the data
//! generator or an experiment changes on purpose, the failing run prints
//! the new values in the file's own form.

use starmagic::trace::json::{self, Value};

use crate::Res;

const EXPECTED: &str = include_str!("../expected.json");

/// `(experiment, rows, checksum)` for a scale (`benchmark` or `small`).
pub fn table1(scale: &str) -> Res<Vec<(char, usize, u64)>> {
    let doc = json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let Some(Value::Obj(members)) = doc.get("table1").and_then(|t| t.get(scale)) else {
        return Err(format!("expected.json has no table1.{scale} section"));
    };
    members
        .iter()
        .map(|(id, entry)| {
            let rows = entry.get("rows").and_then(Value::as_f64);
            let sum = entry
                .get("checksum")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok());
            match (id.chars().next(), rows, sum) {
                (Some(id), Some(rows), Some(sum)) => Ok((id, rows as usize, sum)),
                _ => Err(format!("expected.json: malformed table1.{scale}.{id}")),
            }
        })
        .collect()
}
