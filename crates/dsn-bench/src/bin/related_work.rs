//! Section III related-work check: measured diameter-and-degree pairs for
//! the classic low-degree families the paper cites (De Bruijn "12-and-4 for
//! 3,072 vertices", Kautz "11-and-4", CCC "23-and-3", hypercube, 2-D/3-D
//! torus), side by side with same-scale DSN and RANDOM instances. The
//! binary Kautz graph K(2, 10) has exactly the quoted 3072 vertices; the
//! other families use the closest power-of-two sizes.
//!
//! Run: `cargo run --release -p dsn-bench --bin related_work`

use dsn_bench::RANDOM_SEED;
use dsn_core::kautz::Kautz;
use dsn_core::topology::TopologySpec;
use dsn_metrics::TopologyReport;

fn main() {
    dsn_bench::RunArgs::parse("related_work", "");
    println!("Related-work landscape (Section III): diameter-and-degree");
    println!("{}", TopologyReport::header());
    // Kautz K(2, 10): words of 11 symbols over 3, 3 * 2^10 = 3072 vertices.
    let kautz = Kautz::new(2, 10).expect("build");
    println!("{}", TopologyReport::new("Kautz-2-10", kautz.graph()).row());
    let specs = [
        // ~2k-4k-node classics quoted in the paper
        TopologySpec::DeBruijn { base: 2, dim: 11 }, // 2048 nodes
        TopologySpec::Ccc { dim: 8 },                // 2048 nodes, degree 3
        TopologySpec::Hypercube { dim: 11 },         // 2048 nodes
        TopologySpec::Torus2D { n: 2048 },
        TopologySpec::Torus3D { n: 2048 },
        TopologySpec::Dsn { n: 2048, x: 10 },
        TopologySpec::DlnRandom {
            n: 2048,
            x: 2,
            y: 2,
            seed: RANDOM_SEED,
        },
        TopologySpec::Kleinberg {
            side: 45,
            q: 1,
            seed: RANDOM_SEED,
        }, // 2025 nodes
        TopologySpec::RandomRegular {
            n: 2048,
            d: 4,
            seed: RANDOM_SEED,
        },
        TopologySpec::Ring { n: 2048 },
        TopologySpec::Dln { n: 2048, x: 11 }, // DLN-log n
    ];
    for spec in specs {
        let built = spec.build().expect("build");
        println!("{}", TopologyReport::new(built.name, &built.graph).row());
    }
    println!();
    println!(
        "(paper quotes: De Bruijn 12-and-4 at 3072 vertices, Kautz 11-and-4, CCC 23-and-3,\n \
         Hypernet 19-and-5 at 4608; Kautz-2-10 is the quoted 3072-vertex size, the other\n \
         rows use the closest power-of-two sizes; diam is the undirected diameter)"
    );
}
