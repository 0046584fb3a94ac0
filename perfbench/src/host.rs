//! Host fingerprint and provenance carried by every result record, so a
//! reader can tell a regression from a change of machine or build.

use gmr_json::push_escaped;
use std::path::Path;

/// Source trees whose bytes identify the code under test.
const SOURCE_ROOTS: [&str; 4] = ["crates", "compat", "perfbench/src", "perfbench/Cargo.toml"];

/// GP evaluation threads `table5_quick` runs with, as `exp_table5` does:
/// the host's parallelism, capped at two so the load shape stays the
/// same on bigger machines.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_flag(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "fma" => std::arch::is_x86_feature_detected!("fma"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

/// The commit the checkout was made from, read from `.git` when there is
/// one (the benchmark may run from an exported tree, which has none).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a 64-bit offset basis: the starting state for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Fold `bytes` into the FNV-1a 64-bit hash state `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

/// FNV-1a digest over the paths and bytes of every Rust and manifest
/// file the benchmark is built from: identifies the code under test even
/// where no git metadata exists.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        fnv1a(&mut h, f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            fnv1a(&mut h, &bytes);
        }
    }
    format!("fnv1a:{h:016x}/{}", files.len())
}

/// `"host": {...}, "provenance": {...}` fields for a result record.
pub fn record_fields(workload: &str, seed: u64, seconds: u64, trials: usize) -> String {
    let mut o = String::from("\"host\": {\"cpu\": ");
    push_escaped(&mut o, &cpu_model());
    o.push_str(&format!(
        ", \"nproc\": {}, \"avx2\": {}, \"fma\": {}}}, \"provenance\": {{\"commit\": ",
        nproc(),
        cpu_flag("avx2"),
        cpu_flag("fma")
    ));
    push_escaped(&mut o, &git_commit());
    o.push_str(", \"source\": ");
    push_escaped(&mut o, &source_digest());
    o.push_str(&format!(
        ", \"profile\": \"{}\", \"features\": [\"obsv\"], \"simd_kernels\": {}, \
         \"workload\": ",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        gmr_expr::simd::active()
    ));
    push_escaped(&mut o, workload);
    o.push_str(&format!(
        ", \"seed\": {seed}, \"seconds\": {seconds}, \"trials\": {trials}}}"
    ));
    o
}
