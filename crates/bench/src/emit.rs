//! One renderer for every report. A report describes itself once, as a
//! [`View`] — a titled table of JSON values under [`Column`]s — and the
//! [`Emit`] trait's provided methods spell that one table in the three
//! formats `experiments --format` and a scenario's aggregate select:
//!
//! - **text** ([`Emit::render`]) is the paper-style table. The header line
//!   starts with the view's title and every row is indented to the title's
//!   width; a title ending in a newline stands on a line of its own and the
//!   rows are not indented. Each cell is padded to its column's width and
//!   alignment, one space apart; free text is set off by two spaces.
//! - **JSON** ([`Emit::to_json`]) is one object: `"kind"`, then one object
//!   per row under the view's rows key. A footer row adds one more key, named
//!   by its first cell, holding its other columns.
//! - **CSV** ([`Emit::to_csv`]) is a header line of column keys, then one
//!   line per row (footer included), each field quoted where it needs to be.
//!
//! A [`Column`] carries a key (the JSON key and CSV header), a text label,
//! width and alignment, and one [`Prec`] per format: how that format spells
//! the column's floats, or that it leaves the column out. Text and CSV spell
//! `null` as `-` and nothing, a flag as `yes`/`-` and `true`/`false`, and an
//! array `; `-joined (`-` when empty in text). A value spelled differently
//! per format is two columns, each shown by its formats only: Table 2's
//! kinds, Figure 3's case id, Figure 14's Sheriff failures and the
//! campaign's failed cells. Every output is a pure function
//! of the report, so it inherits the campaign runner's determinism:
//! identical for any thread count, cold cache or warm.
//!
//! A report overrides a provided method only where no column can say what it
//! prints:
//!
//! | Report | Overrides | Why |
//! |---|---|---|
//! | [`Table1Report`](crate::accuracy::Table1Report) | `render`, `to_json` | the text groups the tools with `\|`, joins Sheriff's FN/FP into one cell and closes with a TOTAL row; the JSON nests each tool's FN/FP pair and adds the totals |
//! | [`Table2Report`](crate::accuracy::Table2Report) | `render`, `to_json` | both close with how many bugs LASER classified correctly: a sentence in text, `laser_correct` in JSON |
//! | [`XsocketReport`](crate::xsocket::XsocketReport) | `render` | the text shows its columns in another order than the JSON and CSV |
//! | [`Fig3Report`](crate::characterization::Fig3Report) | `render`, `to_json` | both add the per-category averages the paper quotes |

use std::fmt::Write as _;

use serde::json::Value;

use laser_baselines::SheriffFailure;

/// A report that renders as text, JSON and CSV. Object-safe: callers hold
/// reports as `&dyn Emit`.
pub trait Emit {
    /// The report as one table.
    fn view(&self) -> View;

    /// The text table.
    fn render(&self) -> String {
        self.view().text()
    }

    /// The JSON document.
    fn to_json(&self) -> Value {
        self.view().json()
    }

    /// The CSV table: header line plus rows, `\n`-terminated.
    fn to_csv(&self) -> String {
        self.view().csv()
    }
}

/// How a text column aligns its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Padded on the right (names).
    Left,
    /// Padded on the left (numbers).
    Right,
    /// Free text: set off by two spaces, never padded.
    Free,
}

/// How one format spells a column's floats; every other value ignores it.
/// [`Prec::Omit`] leaves the column out of that format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prec {
    /// The format leaves the column out.
    Omit,
    /// Floats in full.
    Plain,
    /// `{:.N}`.
    Fixed(usize),
    /// `{:.N}x`: a speed-up or slowdown factor.
    Times(usize),
    /// `100·v` as `{:.N}%`.
    Percent(usize),
    /// `100·v` as `{:.N}`, under a label that carries the `%`.
    Hundred(usize),
}

/// One column of a [`View`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// The JSON key and CSV header.
    pub key: &'static str,
    /// The text header.
    pub label: &'static str,
    /// Text width.
    pub width: usize,
    /// Text alignment.
    pub align: Align,
    /// How the text table spells the column.
    pub text: Prec,
    /// How the JSON document spells it.
    pub json: Prec,
    /// How the CSV table spells it.
    pub csv: Prec,
}

impl Column {
    /// A left-aligned column every format shows.
    pub const fn left(key: &'static str, label: &'static str, width: usize) -> Column {
        Column {
            key,
            label,
            width,
            align: Align::Left,
            text: Prec::Plain,
            json: Prec::Plain,
            csv: Prec::Plain,
        }
    }

    /// A right-aligned column every format shows; CSV floats get six
    /// decimals.
    pub const fn right(key: &'static str, label: &'static str, width: usize) -> Column {
        Column {
            align: Align::Right,
            csv: Prec::Fixed(6),
            ..Column::left(key, label, width)
        }
    }

    /// A free-text column only the text table shows.
    pub const fn free_text(key: &'static str, label: &'static str) -> Column {
        Column {
            align: Align::Free,
            ..Column::left(key, label, 0).json(Prec::Omit).csv(Prec::Omit)
        }
    }

    /// A column only the JSON document and the CSV table carry.
    pub const fn data(key: &'static str) -> Column {
        Column::right(key, "", 0).text(Prec::Omit)
    }

    /// A column only the JSON document carries.
    pub const fn json_only(key: &'static str) -> Column {
        Column::data(key).csv(Prec::Omit)
    }

    /// The same column, its text floats spelled `prec`.
    pub const fn text(self, prec: Prec) -> Column {
        Column { text: prec, ..self }
    }

    /// The same column, spelled `prec` in JSON.
    pub const fn json(self, prec: Prec) -> Column {
        Column { json: prec, ..self }
    }

    /// The same column, its CSV floats spelled `prec`.
    pub const fn csv(self, prec: Prec) -> Column {
        Column { csv: prec, ..self }
    }

    /// Append `s` as this column's text cell, after one space unless it
    /// starts the line.
    fn pad(&self, out: &mut String, s: &str, first: bool) {
        if !first {
            out.push(' ');
        }
        let fill = std::iter::repeat_n(' ', self.width.saturating_sub(s.chars().count()));
        match self.align {
            Align::Left => {
                out.push_str(s);
                out.extend(fill);
            }
            Align::Right => {
                out.extend(fill);
                out.push_str(s);
            }
            Align::Free => {
                out.push(' ');
                out.push_str(s);
            }
        }
    }
}

/// Append `value` as the text table (`text`) or the CSV spells it, its
/// floats under `prec`.
fn spell(out: &mut String, value: &Value, prec: Prec, text: bool) -> std::fmt::Result {
    match value {
        Value::Null => out.write_str(if text { "-" } else { "" }),
        Value::Bool(b) => out.write_str(match (text, b) {
            (true, true) => "yes",
            (true, false) => "-",
            (false, true) => "true",
            (false, false) => "false",
        }),
        Value::Int(n) => write!(out, "{n}"),
        Value::Float(x) => match prec {
            Prec::Omit | Prec::Plain => write!(out, "{x}"),
            Prec::Fixed(p) => write!(out, "{x:.p$}"),
            Prec::Times(p) => write!(out, "{x:.p$}x"),
            Prec::Percent(p) => write!(out, "{:.p$}%", x * 100.0),
            Prec::Hundred(p) => write!(out, "{:.p$}", x * 100.0),
        },
        Value::Str(s) => out.write_str(s),
        Value::Array(items) if text && items.is_empty() => out.write_str("-"),
        Value::Array(items) => items.iter().enumerate().try_for_each(|(i, item)| {
            out.write_str(if i == 0 { "" } else { "; " })?;
            spell(out, item, prec, text)
        }),
        Value::Object(_) => out.write_str(&value.render()),
    }
}

/// Sheriff declining a workload, as the paper's tables mark it: `x` (crash)
/// or `i` (incompatible).
pub(crate) fn sheriff_mark(f: SheriffFailure) -> &'static str {
    match f {
        SheriffFailure::Crash => "x",
        SheriffFailure::Incompatible => "i",
    }
}

/// A Sheriff result as the text and CSV tables show it: the value, or the
/// mark of the failure.
pub(crate) fn sheriff_cell<T: Into<Value>>(v: Result<T, SheriffFailure>) -> Value {
    v.map_or_else(|f| sheriff_mark(f).into(), Into::into)
}

/// Whether a Sheriff cell ran: `ok`, `crash` or `incompatible`.
pub(crate) fn sheriff_status<T>(v: &Result<T, SheriffFailure>) -> &'static str {
    match v {
        Ok(_) => "ok",
        Err(SheriffFailure::Crash) => "crash",
        Err(SheriffFailure::Incompatible) => "incompatible",
    }
}

/// A report as one table: what [`Emit`]'s provided methods render.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// The JSON document's `"kind"`.
    pub kind: &'static str,
    /// The text table's title (see the module docs for its layout).
    pub title: &'static str,
    /// The JSON key holding the rows: `rows`, `points`, `cases` or `cells`.
    pub rows_key: &'static str,
    /// The columns, in JSON and CSV order.
    pub columns: &'static [Column],
    /// One value per column in each row.
    pub rows: Vec<Vec<Value>>,
    /// A closing row, named by its first value (Figure 10's geomean).
    pub footer: Option<Vec<Value>>,
}

impl View {
    /// A view of one row per item, under `"rows"`, with no footer.
    pub fn new<T>(
        kind: &'static str,
        title: &'static str,
        columns: &'static [Column],
        items: &[T],
        row: impl Fn(&T) -> Vec<Value>,
    ) -> View {
        View {
            kind,
            title,
            rows_key: "rows",
            columns,
            rows: items.iter().map(row).collect(),
            footer: None,
        }
    }

    /// The text table of every column the text format shows.
    pub fn text(&self) -> String {
        let shown: Vec<usize> = (0..self.columns.len())
            .filter(|&i| self.columns[i].text != Prec::Omit)
            .collect();
        self.table(&shown)
    }

    /// The text table of the columns named by `keys`, in that order.
    pub fn text_in(&self, keys: &[&str]) -> String {
        let shown: Vec<usize> = keys
            .iter()
            .filter_map(|k| self.columns.iter().position(|c| c.key == *k))
            .collect();
        self.table(&shown)
    }

    fn table(&self, shown: &[usize]) -> String {
        let last_line = self.title.rsplit('\n').next().unwrap_or_default();
        let indent = " ".repeat(last_line.len());
        let mut out = String::from(self.title);
        for (n, &i) in shown.iter().enumerate() {
            let column = &self.columns[i];
            column.pad(&mut out, column.label, n == 0 && indent.is_empty());
        }
        out.push('\n');
        let mut cell = String::new();
        for row in self.rows.iter().chain(&self.footer) {
            out.push_str(&indent);
            for (n, &i) in shown.iter().enumerate() {
                cell.clear();
                let _ = spell(&mut cell, &row[i], self.columns[i].text, true);
                self.columns[i].pad(&mut out, &cell, n == 0 && indent.is_empty());
            }
            out.push('\n');
        }
        out
    }

    /// The JSON document.
    pub fn json(self) -> Value {
        let columns = self.columns;
        let object = |cells: Vec<Value>, skip: usize| {
            columns
                .iter()
                .zip(cells)
                .skip(skip)
                .filter(|(c, _)| c.json != Prec::Omit)
                .fold(Value::object(), |v, (c, cell)| v.set(c.key, cell))
        };
        let rows = self.rows.into_iter().map(|row| object(row, 0)).collect();
        let doc = Value::object()
            .set("kind", self.kind)
            .set(self.rows_key, Value::Array(rows));
        match self.footer {
            Some(footer) => {
                let mut name = String::new();
                let _ = spell(&mut name, &footer[0], Prec::Plain, false);
                doc.set(&name, object(footer, 1))
            }
            None => doc,
        }
    }

    /// The CSV table.
    pub fn csv(&self) -> String {
        let shown = self.columns.iter().filter(|c| c.csv != Prec::Omit);
        let mut out = shown.map(|c| c.key).collect::<Vec<_>>().join(",") + "\n";
        let mut field = String::new();
        for row in self.rows.iter().chain(&self.footer) {
            let cells = self
                .columns
                .iter()
                .zip(row)
                .filter(|(c, _)| c.csv != Prec::Omit);
            for (n, (column, cell)) in cells.enumerate() {
                if n > 0 {
                    out.push(',');
                }
                field.clear();
                let _ = spell(&mut field, cell, column.csv, false);
                if field.contains([',', '"', '\n', '\r']) {
                    let _ = write!(out, "\"{}\"", field.replace('"', "\"\""));
                } else {
                    out.push_str(&field);
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{Fig9Point, Fig9Report, Table1Report, Table1Row};
    use crate::campaign::{CampaignResult, CellResult};
    use crate::performance::{Fig10Report, Fig10Row, Fig14Report, Fig14Row};
    use crate::tool::{ReportedLine, ToolFailure, ToolRun};

    fn sample_campaign() -> CampaignResult {
        CampaignResult {
            cells: vec![
                CellResult {
                    workload: "histogram'".into(),
                    tool: "native".into(),
                    outcome: Ok(ToolRun {
                        cycles: 1000,
                        ..ToolRun::default()
                    }),
                },
                CellResult {
                    workload: "histogram'".into(),
                    tool: "laser".into(),
                    outcome: Ok(ToolRun {
                        cycles: 1100,
                        reported: vec![ReportedLine {
                            label: "a.c:3 (false sharing), with \"quotes\"".into(),
                            file: Some("a.c".into()),
                            line: Some(3),
                            kind: None,
                            hitm_records: 5,
                            rate_per_sec: 100.0,
                        }],
                        repair_invoked: true,
                        ..ToolRun::default()
                    }),
                },
                CellResult {
                    workload: "histogram'".into(),
                    tool: "panicky".into(),
                    outcome: Err(ToolFailure::Panicked {
                        message: "boom".into(),
                    }),
                },
                CellResult {
                    workload: "histogram'".into(),
                    tool: "laser-detect".into(),
                    outcome: Err(ToolFailure::BudgetExceeded {
                        reason: laser_core::StopReason::StepBudget {
                            limit: 100,
                            used: 150,
                        },
                    }),
                },
            ],
        }
    }

    #[test]
    fn campaign_json_parses_and_carries_cells() {
        let text = sample_campaign().to_json().render();
        let doc = Value::parse(&text).unwrap();
        assert_eq!(doc.get("kind"), Some(&Value::Str("campaign".into())));
        let Some(Value::Array(cells)) = doc.get("cells") else {
            panic!("no cells in {text}");
        };
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[1].get("normalized"), Some(&Value::Float(1.1)));
        assert_eq!(
            cells[2].get("failure"),
            Some(&Value::Str("panicked: boom".into()))
        );
        assert_eq!(
            cells[3].get("status"),
            Some(&Value::Str("budget-exceeded".into()))
        );
        assert_eq!(
            cells[3].get("failure"),
            Some(&Value::Str(
                "budget exceeded: step budget exceeded (150 steps > limit 100)".into()
            ))
        );
    }

    #[test]
    fn campaign_csv_quotes_embedded_commas() {
        let csv = sample_campaign().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("workload,tool,status"));
        assert!(lines[2].contains("\"a.c:3 (false sharing), with \"\"quotes\"\"\""));
        assert!(lines[3].ends_with("panicked: boom"));
        assert!(lines[4].contains("budget-exceeded"));
    }

    #[test]
    fn figure_reports_emit_valid_json() {
        let fig10 = Fig10Report {
            rows: vec![Fig10Row {
                name: "swaptions",
                laser: 1.01,
                vtune: 1.25,
            }],
        };
        let doc = Value::parse(&fig10.to_json().render()).unwrap();
        assert_eq!(doc.get("kind"), Some(&Value::Str("fig10".into())));

        let fig14 = Fig14Report {
            rows: vec![Fig14Row {
                name: "swaptions",
                laser: 1.0,
                manual_fix: None,
                sheriff_detect: Err(SheriffFailure::Crash),
                sheriff_protect: Ok(4.5),
            }],
        };
        let doc = Value::parse(&fig14.to_json().render()).unwrap();
        let Some(Value::Array(rows)) = doc.get("rows") else {
            panic!()
        };
        assert_eq!(
            rows[0].get("sheriff_detect_status"),
            Some(&Value::Str("crash".into()))
        );
        assert_eq!(rows[0].get("sheriff_detect"), Some(&Value::Null));

        let table1 = Table1Report {
            rows: vec![Table1Row {
                name: "kmeans",
                bugs: 1,
                laser: (0, 0),
                vtune: (0, 2),
                sheriff: Err(SheriffFailure::Incompatible),
            }],
        };
        let doc = Value::parse(&table1.to_json().render()).unwrap();
        assert!(doc.get("totals").is_some());

        let fig9 = Fig9Report {
            points: vec![Fig9Point {
                threshold: 32.0,
                false_negatives: 1,
                false_positives: 2,
            }],
        };
        assert!(Value::parse(&fig9.to_json().render()).is_ok());
    }

    #[test]
    fn figure_csv_has_header_and_rows() {
        let fig14 = Fig14Report {
            rows: vec![Fig14Row {
                name: "swaptions",
                laser: 1.0,
                manual_fix: Some(0.5),
                sheriff_detect: Err(SheriffFailure::Incompatible),
                sheriff_protect: Ok(4.5),
            }],
        };
        let csv = fig14.to_csv();
        assert_eq!(
            csv,
            "workload,laser,manual_fix,sheriff_detect,sheriff_protect\n\
             swaptions,1.000000,0.500000,i,4.500000\n"
        );
    }
}
