//! Command line of dsn-benchmark; see README.md.

use dsn_benchmark::host::CountingAlloc;
use dsn_benchmark::workloads::{Kind, Scale};
use dsn_benchmark::{exec, frontend};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  dsn-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
  dsn-benchmark run [--repeats K] [--seed N] [--seconds S] [--trace] [--out FILE]
  dsn-benchmark compare A.json B.json
  dsn-benchmark verify
workloads: fig10-sweep | saturated | flows-flaps | opt-search";

fn fail(msg: &str) -> ! {
    eprintln!("dsn-benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Flags of every subcommand: `--name value` pairs and bare switches.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], with_value: &[&str], switches: &[&str]) -> Self {
        let mut f = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .unwrap_or_else(|| fail(&format!("unexpected argument `{a}`")));
            if with_value.contains(&name) {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("--{name} needs a value")));
                f.values.push((name.to_string(), v.clone()));
            } else if switches.contains(&name) {
                f.switches.push(name.to_string());
            } else {
                fail(&format!("unknown flag `{a}`"));
            }
        }
        f
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad --{name} `{v}`"))),
        }
    }

    fn seconds(&self, default: f64) -> f64 {
        let s: f64 = self.num("seconds", default);
        if !(0.0..=3600.0).contains(&s) {
            fail("--seconds must be between 0 and 3600");
        }
        s
    }

    fn kind(&self) -> Kind {
        let w = self
            .get("workload")
            .unwrap_or_else(|| fail("--workload is required"));
        Kind::parse(w).unwrap_or_else(|| fail(&format!("unknown workload `{w}`")))
    }
}

fn smoke_or_bench(f: &Flags) -> Scale {
    if f.has("smoke") {
        Scale::Smoke
    } else {
        Scale::Bench
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("exec") => {
            let f = Flags::parse(
                &args[1..],
                &["workload", "seed", "seconds"],
                &["trace", "smoke"],
            );
            let report = exec::exec(&exec::ExecArgs {
                kind: f.kind(),
                seed: f.num("seed", 0),
                seconds: f.seconds(0.0),
                scale: smoke_or_bench(&f),
                trace: f.has("trace"),
            });
            println!("{report}");
            0
        }
        Some("run") => {
            let f = Flags::parse(
                &args[1..],
                &["repeats", "seed", "seconds", "out"],
                &["trace"],
            );
            let repeats = f.num("repeats", 5usize);
            if repeats == 0 {
                fail("--repeats must be at least 1");
            }
            frontend::run(&frontend::RunOpts {
                repeats,
                seed: f.num("seed", 0),
                seconds: f.seconds(0.0),
                trace: f.has("trace"),
                out: f
                    .get("out")
                    .unwrap_or("dsn-benchmark-result.json")
                    .to_string(),
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => frontend::compare(a, b),
            _ => fail("compare needs two result files"),
        },
        Some("verify") if args.len() == 1 => frontend::verify(),
        Some(_) => {
            let f = Flags::parse(&args, &["workload", "seed", "seconds", "trace"], &["smoke"]);
            let trace = match f.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                t => fail(&format!("--trace must be 0 or 1, got `{t}`")),
            };
            frontend::measure(
                f.kind(),
                f.num("seed", 0),
                f.seconds(10.0),
                trace,
                smoke_or_bench(&f),
            )
        }
        None => fail("missing arguments"),
    };
    std::process::exit(code);
}
