//! Cache entries written by an earlier build keep hitting.
//!
//! `cache_v1/` is a store the `experiments` binary wrote (salt 1) while
//! entries were still decoded through a whole `Value` tree: every entry of
//!
//! ```text
//! experiments campaign --threads 2 --scale 0.06 --only "histogram',swaptions" --cache DIR
//! ```
//!
//! plus one entry of the same command with `--cell-budget-steps 10000`
//! (swaptions under `laser`, budget exceeded) and one with `--topology 2s`
//! (histogram' under `laser@2s`). Every entry must load as a hit equal to a
//! fresh simulation of its config. If this fails, the build no longer reads
//! the on-disk format: bump `CACHE_SALT` if that is intended.

use std::collections::BTreeSet;
use std::path::Path;

use laser_bench::{fingerprint, Campaign, CampaignConfig, CellCache, TopologySpec};

#[test]
fn a_store_written_by_the_tree_decoder_build_is_served_in_full() {
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cache_v1");
    #[expect(
        clippy::disallowed_methods,
        reason = "collected into an ordered set on the same line"
    )]
    let entries: BTreeSet<String> = std::fs::read_dir(&store)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(entries.len(), 12, "{entries:?}");

    // Loads never write, so the committed directory is opened in place.
    let cache = CellCache::open(&store).unwrap();
    let mut served = BTreeSet::new();
    let deployments: [fn(&mut CampaignConfig); 3] = [
        |_| {},
        |config| config.set_budget_steps(10_000).unwrap(),
        |config| config.topology = TopologySpec::DualSocket,
    ];
    for deploy in deployments {
        let mut config = CampaignConfig::evaluation();
        config.set_scale(0.06).unwrap();
        config.set_threads(2).unwrap();
        deploy(&mut config);
        let fresh = Campaign::default()
            .with_config(config.clone())
            .with_workload_names(&["histogram'", "swaptions"])
            .unwrap()
            .run();
        for cell in &fresh.cells {
            let tool = cell.tool.split('@').next().unwrap();
            let cell_config = config.cell(&cell.workload, tool, config.topology);
            let file = format!("{}.json", fingerprint(&cell_config));
            if entries.contains(&file) {
                assert_eq!(cache.load(&cell_config).as_ref(), Some(cell), "{file}");
                served.insert(file);
            }
        }
    }
    assert_eq!(served, entries, "every committed entry belongs to a cell");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.simulated()), (12, 0), "{stats:?}");
}
