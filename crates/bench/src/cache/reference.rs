//! The cache entry decoder as it was before the pull reader: parse the
//! whole entry into a [`Value`] tree, then look each field up in it. The
//! differential oracle for [`super::decode_entry`], which must give the same
//! outcome — the same hit, a miss or a stale salt — on every input.
//!
//! Kept verbatim apart from this header, the imports, `pub(super)` on
//! [`decode_entry`] and the optional `"pebs_accuracy"` counts of a Figure 3
//! cell, taught to both decoders in lock-step. Only tests call it.

use laser_baselines::SheriffFailure;
use laser_core::{ContentionKind, StopReason};
use serde::json::Value;

use super::{EntryRejected, ENTRY_KIND};
use crate::campaign::CellResult;
use crate::config::CellConfig;
use crate::tool::{PebsAccuracy, ReportedLine, ToolFailure, ToolRun};

/// Check, in order, the entry's kind, salt, stored canonical config
/// (`canonical` is `config.canonical()`, rendered once by the caller) and the
/// decoded cell's identity.
pub(super) fn decode_entry(
    text: &str,
    salt: u32,
    canonical: &str,
    config: &CellConfig,
) -> Result<CellResult, EntryRejected> {
    let value = Value::parse(text).map_err(|_| EntryRejected::Unusable)?;
    if value.get("kind").and_then(as_str) != Some(ENTRY_KIND) {
        return Err(EntryRejected::Unusable);
    }
    match value.get("salt") {
        Some(Value::Int(stored)) if *stored == i64::from(salt) => {}
        Some(Value::Int(_)) => return Err(EntryRejected::StaleSalt),
        _ => return Err(EntryRejected::Unusable),
    }
    if value.get("config").and_then(as_str) != Some(canonical) {
        return Err(EntryRejected::Unusable);
    }
    let cell = value.get("cell").ok_or(EntryRejected::Unusable)?;
    let cell = decode_cell(cell).ok_or(EntryRejected::Unusable)?;
    // Belt and braces: the stored identity must match what the campaign
    // would label a fresh simulation of this config.
    if cell.workload != config.workload || cell.tool != config.cell_key() {
        return Err(EntryRejected::Unusable);
    }
    Ok(cell)
}

fn decode_cell(value: &Value) -> Option<CellResult> {
    let workload = as_str(value.get("workload")?)?.to_string();
    let tool = as_str(value.get("tool")?)?.to_string();
    let outcome = match (value.get("run")?, value.get("failure")?) {
        (run, Value::Null) => Ok(decode_run(run)?),
        (Value::Null, failure) => Err(decode_failure(failure)?),
        _ => return None,
    };
    Some(CellResult {
        workload,
        tool,
        outcome,
    })
}

fn decode_run(value: &Value) -> Option<ToolRun> {
    let reported = match value.get("reported")? {
        Value::Array(items) => items
            .iter()
            .map(decode_line)
            .collect::<Option<Vec<ReportedLine>>>()?,
        _ => return None,
    };
    Some(ToolRun {
        cycles: as_u64(value.get("cycles")?)?,
        reported,
        repair_invoked: as_bool(value.get("repair_invoked")?)?,
        driver_overhead_cycles: as_u64(value.get("driver_overhead_cycles")?)?,
        detector_cycles: as_u64(value.get("detector_cycles")?)?,
        hitm_events: as_u64(value.get("hitm_events")?)?,
        hitm_remote: as_u64(value.get("hitm_remote")?)?,
        pebs_accuracy: match value.get("pebs_accuracy") {
            Some(counts) => Some(PebsAccuracy {
                addr_correct: as_u64(counts.get("addr_correct")?)?,
                pc_exact: as_u64(counts.get("pc_exact")?)?,
                pc_adjacent: as_u64(counts.get("pc_adjacent")?)?,
            }),
            None => None,
        },
    })
}

fn decode_line(value: &Value) -> Option<ReportedLine> {
    let file = match value.get("file")? {
        Value::Null => None,
        Value::Str(s) => Some(s.clone()),
        _ => return None,
    };
    let line = match value.get("line")? {
        Value::Null => None,
        Value::Int(i) => Some(u32::try_from(*i).ok()?),
        _ => return None,
    };
    let kind = match value.get("kind")? {
        Value::Null => None,
        Value::Str(s) => Some(match s.as_str() {
            "false-sharing" => ContentionKind::FalseSharing,
            "true-sharing" => ContentionKind::TrueSharing,
            "unknown" => ContentionKind::Unknown,
            _ => return None,
        }),
        _ => return None,
    };
    let rate_per_sec = match value.get("rate_per_sec")? {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        _ => return None,
    };
    Some(ReportedLine {
        label: as_str(value.get("label")?)?.to_string(),
        file,
        line,
        kind,
        hitm_records: as_u64(value.get("hitm_records")?)?,
        rate_per_sec,
    })
}

fn decode_failure(value: &Value) -> Option<ToolFailure> {
    if let Some(which) = value.get("unsupported") {
        return match as_str(which)? {
            "crash" => Some(ToolFailure::Unsupported(SheriffFailure::Crash)),
            "incompatible" => Some(ToolFailure::Unsupported(SheriffFailure::Incompatible)),
            _ => None,
        };
    }
    if let Some(budget) = value.get("step_budget") {
        return Some(ToolFailure::BudgetExceeded {
            reason: StopReason::StepBudget {
                limit: as_u64(budget.get("limit")?)?,
                used: as_u64(budget.get("used")?)?,
            },
        });
    }
    None
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_bool(value: &Value) -> Option<bool> {
    match value {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}
