//! Hostile cache entries: real entries of a populated store, mutated with a
//! seeded generator and read back through [`CellCache::load`].
//!
//! The contract under test: `load` never panics, aborts or hangs. It returns
//! `None`, counted as exactly one miss or one invalidation, or a
//! `CellResult` labelled with the config's workload and tool. It is *not*
//! "`Some` only for the original bytes": entries carry no checksum, so a
//! well-formed edit of a number is served as written (module docs).

use super::*;
use crate::campaign::plan_campaign;
use crate::config::CampaignConfig;
use crate::emit::Emit;
use crate::grid::Grid;
use crate::tool::ToolSpec;
use serde::json::MAX_DEPTH;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// One stored cell: enough to rebuild its config, plus its entry's text.
struct Entry {
    workload: String,
    tool: String,
    budget: CellBudget,
    text: String,
}

impl Entry {
    fn config<'a>(&'a self, opts: &'a BuildOptions) -> CellConfig<'a> {
        CellConfig {
            budget: self.budget,
            ..CellConfig::flat(&self.workload, &self.tool, opts)
        }
    }
}

fn opts() -> BuildOptions {
    BuildOptions::scaled(0.08)
}

/// The config of a campaign at [`opts`] on two workers, with `budget` and
/// `cache`.
fn config(budget: CellBudget, cache: &Arc<CellCache>) -> CampaignConfig {
    CampaignConfig {
        opts: opts(),
        threads: NonZeroUsize::new(2),
        budget,
        cache: Some(Arc::clone(cache)),
        ..CampaignConfig::default()
    }
}

/// Native and LASERDETECT on each of `workloads` under `config`.
fn native_and_detect(workloads: &[&str], config: CampaignConfig) -> Grid {
    let mut grid = Grid::with_config(config);
    for workload in workloads {
        let spec = laser_workloads::find(workload).unwrap();
        grid.request(&spec, ToolSpec::Native);
        grid.request(&spec, ToolSpec::LaserDetect);
    }
    grid
}

/// Fill `dir` through real campaigns — every default tool on four workloads
/// (successful runs, Sheriff's crash and incompatible verdicts), a
/// step-budgeted pair (budget trips) and one Figure 3 case (a run with
/// accuracy counts) — and read every entry back.
fn populate(dir: &Path) -> Vec<Entry> {
    let cache = Arc::new(CellCache::open(dir).unwrap());
    let workloads = ["histogram'", "linear_regression", "bodytrack", "dedup"];
    let mut only = config(CellBudget::default(), &cache);
    only.set_only(workloads).unwrap();
    let mut full = Grid::with_config(only);
    plan_campaign(&mut full);
    let full = full.run().into_campaign();
    let budget = CellBudget::steps(5_000);
    let tripped = native_and_detect(&["histogram'"], config(budget, &cache))
        .run()
        .into_campaign();
    let case = laser_workloads::characterization_cases()[3].spec();
    let mut figure3 = Grid::with_config(config(CellBudget::default(), &cache));
    figure3.request(&case, ToolSpec::PebsAccuracy);
    let figure3 = figure3.run().into_campaign();
    let opts = opts();
    let mut entries = Vec::new();
    for (cells, budget) in [
        (&full.cells, CellBudget::default()),
        (&tripped.cells, budget),
        (&figure3.cells, CellBudget::default()),
    ] {
        for cell in cells {
            let mut entry = Entry {
                workload: cell.workload.clone(),
                tool: cell.tool.clone(),
                budget,
                text: String::new(),
            };
            let path = dir.join(format!("{}.json", fingerprint(&entry.config(&opts))));
            entry.text = fs::read_to_string(path).unwrap();
            entries.push(entry);
        }
    }
    // Every entry shape the decoder knows is represented.
    for shape in [
        "\"run\":{",
        "\"unsupported\":\"crash\"",
        "\"unsupported\":\"incompatible\"",
        "\"pebs_accuracy\":{",
    ] {
        assert!(entries.iter().any(|e| e.text.contains(shape)), "{shape}");
    }
    assert!(entries.iter().any(|e| e.text.contains("\"step_budget\"")));
    entries
}

/// xorshift64*, seeded.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A string node the rendered text carries as `"\u0001RAW\u0001"`: replaced
/// by raw JSON text after rendering, for values the writer cannot produce.
const RAW: &str = "\u{1}RAW\u{1}";

/// One node of a document: its path (child indices from the root), the key
/// it sits under if its parent is an object, and whether it is a non-empty
/// object itself.
struct Node {
    path: Vec<usize>,
    key: Option<String>,
    object: bool,
}

fn collect_nodes(value: &Value, path: &mut Vec<usize>, key: Option<&str>, out: &mut Vec<Node>) {
    out.push(Node {
        path: path.clone(),
        key: key.map(str::to_string),
        object: matches!(value, Value::Object(pairs) if !pairs.is_empty()),
    });
    let children: Vec<(Option<&str>, &Value)> = match value {
        Value::Array(items) => items.iter().map(|v| (None, v)).collect(),
        Value::Object(pairs) => pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        _ => return,
    };
    for (i, (key, child)) in children.into_iter().enumerate() {
        path.push(i);
        collect_nodes(child, path, key, out);
        path.pop();
    }
}

fn node_mut<'a>(value: &'a mut Value, path: &[usize]) -> &'a mut Value {
    match (value, path.split_first()) {
        (value, None) => value,
        (Value::Array(items), Some((&i, rest))) => node_mut(&mut items[i], rest),
        (Value::Object(pairs), Some((&i, rest))) => node_mut(&mut pairs[i].1, rest),
        (other, Some(_)) => panic!("no children under {other:?}"),
    }
}

/// Render `value`, splicing `raw` in place of the [`RAW`] marker.
fn render_with(value: &Value, raw: &str) -> Vec<u8> {
    value
        .render()
        .replace(&Value::Str(RAW.to_string()).render(), raw)
        .into_bytes()
}

const COUNT_FIELDS: &[&str] = &[
    "salt",
    "cycles",
    "driver_overhead_cycles",
    "detector_cycles",
    "hitm_events",
    "hitm_remote",
    "hitm_records",
    "line",
    "limit",
    "used",
    "addr_correct",
    "pc_exact",
    "pc_adjacent",
];
const BAD_COUNTS: &[&str] = &[
    "1e999",
    "-1",
    "1.5",
    "\"7\"",
    "18446744073709551616",
    "-0",
    "0",
];

/// One seeded mutation of `entry` (`others` supplies swapped-in configs).
fn mutate(rng: &mut Rng, entry: &Entry, others: &[Entry]) -> Vec<u8> {
    let text = entry.text.as_bytes();
    let mut doc = Value::parse(&entry.text).unwrap();
    let mut nodes = Vec::new();
    collect_nodes(&doc, &mut Vec::new(), None, &mut nodes);
    let any_path = |rng: &mut Rng| nodes[rng.below(nodes.len())].path.clone();
    // The two megabyte-sized kinds are 1 in 16 each: they cost a
    // millisecond or more apiece where the others cost microseconds.
    let kind = match rng.below(32) {
        0 | 1 => 2,
        2 | 3 => 3,
        k => [0, 1, 4, 5, 6, 7, 8][k % 7],
    };
    match kind {
        // Byte flips: often invalid UTF-8, sometimes a changed digit.
        0 => {
            let mut bytes = text.to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 + rng.below(255) as u8;
            }
            bytes
        }
        // Truncation at a character boundary.
        1 => {
            let cut = rng.below(entry.text.len());
            let cut = (0..=cut).rev().find(|&i| entry.text.is_char_boundary(i));
            text[..cut.unwrap_or(0)].to_vec()
        }
        // A bracket flood in place of some value, closed or not.
        2 => {
            *node_mut(&mut doc, &any_path(rng)) = Value::Str(RAW.to_string());
            let depth = [MAX_DEPTH - 1, MAX_DEPTH, 100_000][rng.below(3)];
            let mut flood = "[".repeat(depth);
            if rng.below(2) == 0 {
                flood.push_str(&"]".repeat(depth));
            }
            render_with(&doc, &flood)
        }
        // A 1 MiB string in place of some value.
        3 => {
            *node_mut(&mut doc, &any_path(rng)) = Value::Str(RAW.to_string());
            render_with(
                &doc,
                &format!("\"{}\"", "abcdéf€\\n".repeat((1 << 20) / 12)),
            )
        }
        // Out-of-domain numbers, or a string, in a count field.
        4 => {
            let fields: Vec<&Node> = nodes
                .iter()
                .filter(|n| n.key.as_deref().is_some_and(|k| COUNT_FIELDS.contains(&k)))
                .collect();
            let path = &fields[rng.below(fields.len())].path;
            *node_mut(&mut doc, path) = Value::Str(RAW.to_string());
            render_with(&doc, BAD_COUNTS[rng.below(BAD_COUNTS.len())])
        }
        // A duplicate key, before or after the original, with another value.
        5 => {
            let objects: Vec<&Node> = nodes.iter().filter(|n| n.object).collect();
            let path = &objects[rng.below(objects.len())].path;
            let Value::Object(pairs) = node_mut(&mut doc, path) else {
                unreachable!()
            };
            let i = rng.below(pairs.len());
            let twin = (pairs[i].0.clone(), scalar(rng));
            pairs.insert(i + rng.below(2), twin);
            doc.render().into_bytes()
        }
        // A value of the wrong type.
        6 => {
            *node_mut(&mut doc, &any_path(rng)) = match rng.below(3) {
                0 => scalar(rng),
                1 => Value::Array(vec![scalar(rng)]),
                _ => Value::object().set("x", scalar(rng)),
            };
            doc.render().into_bytes()
        }
        // Another entry's config string.
        7 => {
            let other = &others[rng.below(others.len())];
            let config = Value::parse(&other.text).unwrap().get("config").cloned();
            let Value::Object(pairs) = &mut doc else {
                unreachable!()
            };
            for (key, value) in pairs {
                if key == "config" {
                    *value = config.clone().unwrap();
                }
            }
            doc.render().into_bytes()
        }
        // Bytes that are not UTF-8: `read_to_string` refuses the file.
        _ => {
            let mut bytes = text.to_vec();
            let bad: &[u8] = [&[0xff][..], &[0xc3], &[0x80], &[0xed, 0xa0, 0x80]][rng.below(4)];
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, bad.iter().copied());
            bytes
        }
    }
}

fn scalar(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.next() as i64 >> rng.below(64)),
        3 => Value::Float(0.5),
        4 => Value::Str("x".to_string()),
        _ => Value::Str("laser-cell".to_string()),
    }
}

/// Load `entry`'s config through a handle and check the contract: exactly
/// one counter moved, and a hit is labelled like the config.
fn load_checked(cache: &CellCache, entry: &Entry, opts: &BuildOptions, what: &str) -> bool {
    let config = entry.config(opts);
    let before = cache.stats();
    let loaded = cache.load(&config);
    let after = cache.stats();
    let moved = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.invalidated - before.invalidated,
    );
    match &loaded {
        Some(cell) => {
            assert_eq!(moved, (1, 0, 0), "{what}");
            assert_eq!(cell.workload, config.workload, "{what}");
            assert_eq!(cell.tool, config.cell_key(), "{what}");
        }
        None => assert!(
            moved == (0, 1, 0) || moved == (0, 0, 1),
            "{what}: {moved:?}"
        ),
    }
    loaded.is_some()
}

#[test]
fn hostile_entries_are_misses_or_correctly_labelled_hits() {
    let dir = scratch_dir("hostile");
    let entries = populate(&dir);
    let opts = opts();
    let cache = CellCache::open(&dir).unwrap();
    let path = |entry: &Entry| dir.join(format!("{}.json", fingerprint(&entry.config(&opts))));

    // Unmutated, every entry hits, and both decoders agree on it.
    for entry in &entries {
        assert!(load_checked(&cache, entry, &opts, "pristine"));
        assert!(assert_decoders_agree(&entry.text, &entry.config(&opts), "pristine").is_ok());
    }

    // Truncation at every character boundary of one entry: only the whole
    // text (and no prefix of it) is a valid document.
    let entry = &entries[0];
    for cut in (0..entry.text.len()).filter(|&i| entry.text.is_char_boundary(i)) {
        fs::write(path(entry), &entry.text.as_bytes()[..cut]).unwrap();
        assert!(
            !load_checked(&cache, entry, &opts, "truncated"),
            "cut at {cut}"
        );
        let _ = assert_decoders_agree(&entry.text[..cut], &entry.config(&opts), "truncated");
    }
    fs::write(path(entry), &entry.text).unwrap();

    let mutations = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut hits = 0;
    for i in 0..mutations {
        let entry = &entries[rng.below(entries.len())];
        let bytes = mutate(&mut rng, entry, &entries);
        fs::write(path(entry), &bytes).unwrap();
        let what = format!(
            "mutation {i}: {}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(300)])
        );
        hits += usize::from(load_checked(&cache, entry, &opts, &what));
        // Text the store can hand a decoder: the pull reader decodes it as
        // the tree decoder does.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = assert_decoders_agree(text, &entry.config(&opts), &what);
        }
        fs::write(path(entry), &entry.text).unwrap();
    }
    // Both outcomes occur: the mutations are not all trivially rejected.
    assert!(
        hits > mutations / 20 && hits < mutations / 2,
        "{hits} of {mutations} hit"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_bracket_flood_entry_is_one_counted_miss_with_identical_bytes() {
    // Before the parser had a depth bound this entry aborted the process
    // with a stack overflow on the campaign pool thread that loaded it.
    let dir = scratch_dir("flood");
    let campaign = |cache: &Arc<CellCache>| {
        native_and_detect(
            &["histogram'", "swaptions"],
            config(CellBudget::default(), cache),
        )
    };
    let cold = campaign(&Arc::new(CellCache::open(&dir).unwrap()))
        .run()
        .into_campaign();
    let opts = opts();
    let victim = fingerprint(&CellConfig::flat("swaptions", "laser-detect", &opts));
    let flood = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    fs::write(dir.join(format!("{victim}.json")), flood).unwrap();

    let cache = Arc::new(CellCache::open(&dir).unwrap());
    let warm = campaign(&cache).run().into_campaign();
    let cells = cold.cells.len() as u64;
    assert_eq!(
        cache.stats(),
        CacheStats {
            hits: cells - 1,
            misses: 1,
            invalidated: 0,
            stored: 1,
        }
    );
    assert_eq!(cache.stats().simulated(), 1);
    assert_eq!(cold.render(), warm.render());
    assert_eq!(cold.to_json().render(), warm.to_json().render());
    assert_eq!(cold.to_csv(), warm.to_csv());

    let _ = fs::remove_dir_all(&dir);
}
