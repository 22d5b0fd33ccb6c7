//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run -p tilestore-bench --release --bin repro -- all
//! cargo run -p tilestore-bench --release --bin repro -- table4
//! cargo run -p tilestore-bench --release --bin repro -- extended --full
//! ```
//!
//! Subcommands: `table1 table2 table3 table4 fig7 extended table5 table6
//! fig8 sparse ablate-merge all`. Add `--json` for machine-readable output of the
//! measurement-backed artifacts.

use std::collections::BTreeMap;

use tilestore_bench::harness::{best_by_prefix, speedups, Experiment, QuerySpec, SchemeResult};
use tilestore_bench::report::{bytes, secs, speedup, TextTable};
use tilestore_bench::schemes::{table2_schemes, table5_schemes, NamedScheme};
use tilestore_bench::workloads::animation::Animation;
use tilestore_bench::workloads::sales::SalesCube;
use tilestore_bench::workloads::sparse::SparseCube;
use tilestore_compress::CompressionPolicy;
use tilestore_engine::Array;
use tilestore_storage::CostModel;
use tilestore_tiling::{AreasOfInterestTiling, Scheme};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let full = args.iter().any(|a| a == "--full");
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);

    let run = |name: &str| command == name || command == "all";
    if run("table1") {
        table1();
    }
    if run("table2") {
        table2();
    }
    if run("table3") {
        table3();
    }
    if run("table4") || run("fig7") {
        table4_and_fig7(command, json);
    }
    if run("extended") {
        extended(full, json);
    }
    if run("table5") {
        table5();
    }
    if run("table6") || run("fig8") {
        table6_and_fig8(command, json);
    }
    if run("sparse") {
        sparse(json);
    }
    if run("ablate-merge") {
        ablate_merge();
    }
    if ![
        "table1",
        "table2",
        "table3",
        "table4",
        "fig7",
        "extended",
        "table5",
        "table6",
        "fig8",
        "sparse",
        "ablate-merge",
        "all",
    ]
    .contains(&command)
    {
        eprintln!(
            "unknown command {command:?}; expected one of table1 table2 table3 table4 \
             fig7 extended table5 table6 fig8 ablate-merge all (flags: --json --full)"
        );
        std::process::exit(2);
    }
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 1: benchmark data cube specification.
fn table1() {
    banner("Table 1 — Benchmark data cube specification");
    let cube = SalesCube::table1();
    let mut t = TextTable::new(&["Dim", "Cells", "Categories", "Partition points"]);
    let cats = ["Months", "Product classes", "Country districts"];
    let names = ["Days", "Products", "Stores"];
    for (i, p) in cube.partitions.iter().enumerate() {
        let blocks = p.blocks(&cube.domain).expect("static partitions are valid");
        let pts = if p.points.len() > 6 {
            format!(
                "[{},{},...,{}] ({} points)",
                p.points[0],
                p.points[1],
                p.points.last().expect("non-empty"),
                p.points.len()
            )
        } else {
            format!("{:?}", p.points)
        };
        t.row(vec![
            format!("{}", i + 1),
            format!("{} ({})", names[i], cube.domain.extent(i)),
            format!("{} ({})", cats[i], blocks.len()),
            pts,
        ]);
    }
    print!("{}", t.render());
    println!(
        "Cube: {} = {} cells x 4 B = {}",
        cube.domain,
        cube.domain.cells(),
        bytes(cube.domain.size_bytes(4).expect("fits u64"))
    );
}

/// Table 2: tiling schemes and the tile counts they produce.
fn table2() {
    banner("Table 2 — Tiling schemes (tile inventory over the 16.7MB cube)");
    let cube = SalesCube::table1();
    let data = placeholder_array(&cube);
    let exp = sales_experiment(&data, &cube);
    let schemes = table2_schemes(&cube.partitions_2p(), &cube.partitions_3p());
    let mut t = TextTable::new(&["Scheme", "MaxTileSize", "Tiles", "Largest tile"]);
    for s in &schemes {
        let (n, max) = exp.tile_counts(s).expect("schemes are valid for the cube");
        let cap = match &s.scheme {
            Scheme::Aligned(a) => a.max_tile_size,
            Scheme::Directional(d) => d.max_tile_size,
            _ => 0,
        };
        t.row(vec![s.name.clone(), bytes(cap), n.to_string(), bytes(max)]);
    }
    print!("{}", t.render());
}

/// Table 3: the query set.
fn table3() {
    banner("Table 3 — Queries for the directional tiling test");
    let cube = SalesCube::table1();
    let mut t = TextTable::new(&["Query", "Region", "Size", "Selected (M,P,D)"]);
    for q in cube.queries() {
        t.row(vec![
            q.label.to_string(),
            q.region.to_string(),
            bytes(q.region.size_bytes(4).expect("fits u64")),
            q.selected.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn placeholder_array(cube: &SalesCube) -> Array {
    cube.generate(42)
}

fn sales_experiment<'a>(data: &'a Array, cube: &SalesCube) -> Experiment<'a> {
    Experiment {
        data,
        cell_type: SalesCube::cell_type(),
        queries: cube
            .queries()
            .into_iter()
            .map(|q| QuerySpec {
                label: q.label.to_string(),
                region: q.region,
            })
            .collect(),
        model: CostModel::classic_disk(),
        compression: CompressionPolicy::None,
    }
}

fn print_speedup_table(title: &str, fast: &SchemeResult, slow: &SchemeResult) {
    banner(title);
    let rows = speedups(fast, slow);
    let mut t = TextTable::new(&["", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]);
    for (metric, pick) in [("t_o", 0usize), ("t_totalaccess", 1), ("t_totalcpu", 2)] {
        let mut cells = vec![metric.to_string()];
        for r in &rows {
            let v = match pick {
                0 => r.t_o,
                1 => r.total_access,
                _ => r.total_cpu,
            };
            cells.push(speedup(v));
        }
        // Pad short query sets (Table 6 has only a–d).
        while cells.len() < 11 {
            cells.push(String::new());
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "Average speedup of {} over {}: {:.1} (t_totalaccess), {:.1} (t_totalcpu)",
        fast.scheme,
        slow.scheme,
        slow.mean_total_access() / fast.mean_total_access(),
        slow.mean_total_cpu() / fast.mean_total_cpu(),
    );
}

fn print_times_series(title: &str, results: &[&SchemeResult], labels: &[&str]) {
    banner(title);
    let mut t = TextTable::new(&["Scheme", "Query", "t_ix", "t_o", "t_cpu", "t_totalcpu"]);
    for r in results {
        for q in &r.queries {
            if labels.contains(&q.label.as_str()) {
                t.row(vec![
                    r.scheme.clone(),
                    q.label.clone(),
                    secs(q.times.t_ix),
                    secs(q.times.t_o),
                    secs(q.times.t_cpu),
                    secs(q.total_cpu()),
                ]);
            }
        }
    }
    print!("{}", t.render());
}

/// Table 4 + Figure 7: the directional tiling experiment.
fn table4_and_fig7(command: &str, json: bool) {
    let cube = SalesCube::table1();
    let data = placeholder_array(&cube);
    let exp = sales_experiment(&data, &cube);
    let schemes = table2_schemes(&cube.partitions_2p(), &cube.partitions_3p());
    eprintln!(
        "[running {} schemes x 10 queries on the 16.7MB cube ...]",
        schemes.len()
    );
    let results = exp.run(&schemes).expect("experiment must run");

    let by_name: BTreeMap<&str, &SchemeResult> =
        results.iter().map(|r| (r.scheme.as_str(), r)).collect();
    let best_reg = best_by_prefix(&results, "Reg").expect("regular schemes present");
    let best_dir = best_by_prefix(&results, "Dir").expect("directional schemes present");
    println!(
        "\nBest regular scheme (mean t_totalcpu): {}; best directional: {}",
        best_reg.scheme, best_dir.scheme
    );

    let dir64k3p = by_name["Dir64K3P"];
    let reg32k = by_name["Reg32K"];
    if command == "table4" || command == "all" {
        print_speedup_table(
            "Table 4 — Speedup of Dir64K3P over Reg32K",
            dir64k3p,
            reg32k,
        );
    }
    if command == "fig7" || command == "all" {
        print_times_series(
            "Figure 7 — Times for queries e, f, g (Dir64K3P vs Reg32K)",
            &[dir64k3p, reg32k],
            &["e", "f", "g"],
        );
    }
    if json {
        println!("{}", tilestore_testkit::json::to_string_pretty(&results));
    }
}

/// The §6.1 extended-cube experiment (Dir64K3P vs Reg32K only).
fn extended(full: bool, json: bool) {
    let cube = if full {
        SalesCube::extended_full()
    } else {
        SalesCube::extended_reduced()
    };
    banner(&format!(
        "Extended cubes (§6.1) — {} ({})",
        cube.domain,
        bytes(cube.domain.size_bytes(4).expect("fits u64"))
    ));
    if !full {
        println!("(size-reduced; pass --full for the 375MB version)");
    }
    eprintln!(
        "[generating {} cube ...]",
        bytes(cube.domain.size_bytes(4).unwrap())
    );
    let data = cube.generate(42);
    let exp = sales_experiment(&data, &cube);
    let schemes = vec![
        NamedScheme::directional(64, cube.partitions_3p()),
        NamedScheme::regular(3, 32),
    ];
    eprintln!("[loading 2 schemes and replaying 10 queries ...]");
    let results = exp.run(&schemes).expect("experiment must run");
    print_speedup_table(
        "Speedup of Dir64K3P over Reg32K (extended cube)",
        &results[0],
        &results[1],
    );
    if json {
        println!("{}", tilestore_testkit::json::to_string_pretty(&results));
    }
}

/// Table 5: the areas-of-interest test specification.
fn table5() {
    banner("Table 5 — Test for areas of interest");
    let anim = Animation::table5();
    println!("Cell size:      3 bytes (RGB)");
    println!("Spatial domain: {}", anim.domain);
    println!(
        "Array size:     {}",
        bytes(anim.domain.size_bytes(3).expect("fits u64"))
    );
    for (i, a) in anim.areas.iter().enumerate() {
        println!(
            "Area of interest {}: {a} ({})",
            i + 1,
            bytes(a.size_bytes(3).unwrap())
        );
    }
    println!("Tiling schemes: Reg{{32,64,128,256}}K, AI{{32,64,128,256}}K");
    let mut t = TextTable::new(&["Query", "Region", "Size", "Kind"]);
    for q in anim.queries() {
        t.row(vec![
            q.label.to_string(),
            q.region.to_string(),
            bytes(q.region.size_bytes(3).expect("fits u64")),
            if q.expected {
                "access pattern"
            } else {
                "\"unexpected\""
            }
            .to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Table 6 + Figure 8: the areas-of-interest experiment.
fn table6_and_fig8(command: &str, json: bool) {
    let anim = Animation::table5();
    let data = anim.generate();
    let exp = Experiment {
        data: &data,
        cell_type: Animation::cell_type(),
        queries: anim
            .queries()
            .into_iter()
            .map(|q| QuerySpec {
                label: q.label.to_string(),
                region: q.region,
            })
            .collect(),
        model: CostModel::classic_disk(),
        compression: CompressionPolicy::None,
    };
    let schemes = table5_schemes(&anim.areas);
    eprintln!(
        "[running {} schemes x 4 queries on the 6.8MB animation ...]",
        schemes.len()
    );
    let results = exp.run(&schemes).expect("experiment must run");
    let by_name: BTreeMap<&str, &SchemeResult> =
        results.iter().map(|r| (r.scheme.as_str(), r)).collect();
    let best_reg = best_by_prefix(&results, "Reg").expect("regular schemes present");
    let best_ai = best_by_prefix(&results, "AI").expect("AI schemes present");
    println!(
        "\nBest regular scheme (mean t_totalcpu): {}; best areas-of-interest: {}",
        best_reg.scheme, best_ai.scheme
    );

    let ai256 = by_name["AI256K"];
    let reg64 = by_name["Reg64K"];
    if command == "table6" || command == "all" {
        banner("Table 6 — Speedup of AI256K over Reg64K");
        let rows = speedups(ai256, reg64);
        let mut t = TextTable::new(&["", "a", "b", "c", "d"]);
        for (metric, pick) in [("t_o", 0usize), ("t_totalaccess", 1), ("t_totalcpu", 2)] {
            let mut cells = vec![metric.to_string()];
            for r in &rows {
                let v = match pick {
                    0 => r.t_o,
                    1 => r.total_access,
                    _ => r.total_cpu,
                };
                cells.push(speedup(v));
            }
            t.row(cells);
        }
        print!("{}", t.render());
    }
    if command == "fig8" || command == "all" {
        print_times_series(
            "Figure 8 — Times for queries a-d (Reg64K vs AI256K)",
            &[reg64, ai256],
            &["a", "b", "c", "d"],
        );
    }
    if json {
        println!("{}", tilestore_testkit::json::to_string_pretty(&results));
    }
}

/// The §8 future-work experiment: sparse data with selective compression
/// and category-aligned (directional) vs regular tiling.
fn sparse(json: bool) {
    banner("Sparse data (§8 future work) — selective compression + partial coverage");
    let sc = SparseCube::one_year();
    eprintln!("[generating sparse cube {} ...]", sc.cube.domain);
    let data = sc.generate(42);
    let queries: Vec<QuerySpec> = sc
        .queries()
        .into_iter()
        .map(|(label, region)| QuerySpec { label, region })
        .collect();
    let schemes = vec![
        NamedScheme::regular(3, 32),
        NamedScheme::directional(64, sc.cube.partitions_3p()),
    ];
    let mut all = Vec::new();
    let mut t = TextTable::new(&[
        "Scheme",
        "Compression",
        "Tiles",
        "Physical size",
        "In pages",
        "cluster1 t_o",
        "background t_o",
    ]);
    for (policy_name, policy) in [
        ("none", CompressionPolicy::None),
        ("selective", CompressionPolicy::selective_default()),
    ] {
        let exp = Experiment {
            data: &data,
            cell_type: SalesCube::cell_type(),
            queries: queries.clone(),
            model: CostModel::classic_disk(),
            compression: policy,
        };
        for named in &schemes {
            let r = exp.run_scheme(named).expect("sparse experiment runs");
            t.row(vec![
                r.scheme.clone(),
                policy_name.to_string(),
                r.tiles.to_string(),
                bytes(r.physical_bytes),
                bytes(r.page_bytes),
                secs(r.queries[0].times.t_o),
                secs(r.queries[3].times.t_o),
            ]);
            all.push(r);
        }
    }
    print!("{}", t.render());
    // Speedup summary: directional+selective vs regular+none (the paper's
    // expectation: gains even higher than on dense data).
    let dir_sel = &all[3];
    let reg_none = &all[0];
    let rows = speedups(dir_sel, reg_none);
    println!("\nSpeedup of Dir64K3P+selective over Reg32K+uncompressed:");
    for r in &rows {
        println!(
            "  {:>11}: t_o {:>5}  t_totalcpu {:>5}",
            r.label,
            speedup(r.t_o),
            speedup(r.total_cpu)
        );
    }
    if json {
        println!("{}", tilestore_testkit::json::to_string_pretty(&all));
    }
}

/// Ablation: the IntersectCode merge step of the Fig. 6 algorithm.
fn ablate_merge() {
    banner("Ablation — AOI tiling with and without the merge step (Fig. 6 line 4)");
    let anim = Animation::table5();
    let data = anim.generate();
    let queries: Vec<QuerySpec> = anim
        .queries()
        .into_iter()
        .map(|q| QuerySpec {
            label: q.label.to_string(),
            region: q.region,
        })
        .collect();
    let exp = Experiment {
        data: &data,
        cell_type: Animation::cell_type(),
        queries,
        model: CostModel::classic_disk(),
        compression: CompressionPolicy::None,
    };
    let mut t = TextTable::new(&[
        "MaxTileSize",
        "Variant",
        "Tiles",
        "q=a seeks",
        "q=a t_o",
        "q=b seeks",
        "q=b t_o",
    ]);
    for kb in [64u64, 256, 1024, 4096] {
        for (label, skip_merge) in [("with merge", false), ("without merge", true)] {
            let mut strat = AreasOfInterestTiling::new(anim.areas.clone(), kb * 1024);
            strat.skip_merge = skip_merge;
            let named = NamedScheme {
                name: format!("AI{kb}K-{label}"),
                scheme: Scheme::AreasOfInterest(strat),
            };
            let r = exp.run_scheme(&named).expect("scheme runs");
            t.row(vec![
                format!("{kb}K"),
                label.to_string(),
                r.tiles.to_string(),
                r.queries[0].stats.io.blobs_read.to_string(),
                secs(r.queries[0].times.t_o),
                r.queries[1].stats.io.blobs_read.to_string(),
                secs(r.queries[1].times.t_o),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "(The merge step matters once MaxTileSize allows same-code neighbours to\n\
         coalesce: fewer tiles means fewer seeks per area-of-interest access.)"
    );
}
