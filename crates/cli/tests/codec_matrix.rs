//! Every codec tier this host can run, forced through `THREELC_CODEC_IMPL`
//! on the real binary: the forced tier is the active one, an AVX2 host
//! offers `simd`, and the tiers write byte-identical `.3lc` files and
//! reject a corrupt one with identical error text. (`ci.sh` reruns the
//! core and loopback suites under each forced tier.)

mod common;

use std::process::{Command, Output};

/// `threelc args…` with the tier forced (`""` = auto).
fn threelc(tier: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_threelc"))
        .env("THREELC_CODEC_IMPL", tier)
        .args(args)
        .output()
        .expect("run threelc")
}

fn stdout(out: Output) -> String {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "threelc failed: {err}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn tmp(name: &str) -> String {
    common::tmp(name).to_str().expect("utf-8 path").to_string()
}

#[test]
fn every_tier_writes_and_rejects_the_same_bytes() {
    let codec = stdout(threelc("", &["codec"]));
    let available: Vec<&str> = codec
        .lines()
        .find_map(|l| l.strip_prefix("available: "))
        .expect("an `available:` line")
        .split(' ')
        .collect();
    // Availability must be truthful: an AVX2 host that hid the simd tier
    // would silently shrink this matrix.
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    if cpuinfo.split_whitespace().any(|flag| flag == "avx2") {
        assert_eq!(available, ["scalar", "swar", "simd"], "{codec}");
    }

    // 100,003 values: zero at every third index, `sin(0.37·i)·0.01`
    // elsewhere — long zero runs and dense stretches in one tensor.
    let input: Vec<u8> = (0..100_003u32)
        .map(|i| match i % 3 {
            0 => 0.0,
            _ => ((f64::from(i) * 0.37).sin() * 0.01) as f32,
        })
        .flat_map(f32::to_le_bytes)
        .collect();
    let input_path = tmp("matrix-input.f32");
    std::fs::write(&input_path, input).expect("write input");
    let containers: Vec<[Vec<u8>; 2]> = available
        .iter()
        .map(|tier| {
            // Forcing a tier the host supports activates exactly that tier.
            let active = stdout(threelc(tier, &["codec"]));
            assert!(
                active.contains(&format!("active:    {tier} (forced")),
                "{active}"
            );
            [None, Some("--no-zre")].map(|no_zre| {
                let path = tmp(&format!("matrix-{tier}-{}.3lc", no_zre.is_some()));
                let mut args = vec!["compress", input_path.as_str(), &path, "--sparsity", "1.5"];
                args.extend(no_zre);
                let report = stdout(threelc(tier, &args));
                assert!(report.contains(&format!("codec: {tier}")), "{report}");
                std::fs::read(&path).expect("read container")
            })
        })
        .collect();
    for (tier, got) in available.iter().zip(&containers) {
        assert!(got == &containers[0], "tier {tier} wrote other bytes");
    }

    // An invalid quartic byte (0xff > 242, unambiguous without zero-run
    // escapes) in the middle of the no-ZRE container.
    let mut corrupt = containers[0][1].clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] = 0xFF;
    let corrupt_path = tmp("matrix-corrupt.3lc");
    std::fs::write(&corrupt_path, corrupt).expect("write corrupt container");
    let errors: Vec<String> = available
        .iter()
        .map(|tier| {
            let out_path = tmp(&format!("matrix-corrupt-{tier}.f32"));
            let out = threelc(tier, &["decompress", &corrupt_path, &out_path]);
            assert!(!out.status.success(), "tier {tier} decoded it");
            String::from_utf8_lossy(&out.stderr).into_owned()
        })
        .collect();
    assert!(errors[0].contains("invalid quartic byte"), "{}", errors[0]);
    for (tier, err) in available.iter().zip(&errors) {
        assert_eq!(err, &errors[0], "tier {tier} rejected it differently");
    }
}
