//! Records the compiler's version line for the run header.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    let field = |key: &str| {
        version
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .map_or("unknown", str::trim)
            .to_owned()
    };
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC=rustc {} (commit {})",
        field("release:"),
        field("commit-hash:")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
