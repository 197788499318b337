//! Records the compiler version and the source revision the benchmark was
//! built from, for the provenance line of every result.

use std::path::Path;
use std::process::Command;

fn capture(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]);
    // Only the repository's own history names the revision; a source tree
    // without one reports `unknown` rather than asking a parent directory.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git_dir = Path::new(&manifest_dir).join("../.git");
    let rev = if git_dir.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
        capture("git", &["-C", &manifest_dir, "rev-parse", "HEAD"])
    } else {
        None
    };
    let unknown = || "unknown".to_string();
    println!("cargo:rustc-env=SPANBENCH_RUSTC={}", version.unwrap_or_else(unknown));
    println!("cargo:rustc-env=SPANBENCH_GIT_REV={}", rev.unwrap_or_else(unknown));
    println!("cargo:rerun-if-changed=build.rs");
}
