//! Where and from what a result came: host, build switches, source
//! revision and seeds.

use std::path::{Path, PathBuf};

/// Seed kept out of all tuning of this benchmark; later claims are
/// confirmed on it.
pub const HOLDOUT_SEED: u64 = 20_251_017;

#[derive(Clone, Debug)]
pub struct Provenance {
    pub cores: usize,
    pub avx2: bool,
    /// `DBAT_GEMM_FORCE_SCALAR` as set for the run, if at all.
    pub force_scalar: Option<String>,
    /// Git revision of the checkout, when it is a git repository.
    pub rev: Option<String>,
    /// FNV-1a digest of the sources the benchmark builds from, which
    /// identifies checkouts that carry no git metadata.
    pub source_fnv64: String,
    pub seed: u64,
    pub holdout_seed: u64,
}

impl Provenance {
    pub fn collect(seed: u64) -> Self {
        let root = repo_root();
        Provenance {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx2: avx2(),
            force_scalar: std::env::var("DBAT_GEMM_FORCE_SCALAR").ok(),
            rev: git_rev(&root),
            source_fnv64: format!("{:016x}", source_digest(&root)),
            seed,
            holdout_seed: HOLDOUT_SEED,
        }
    }

    pub fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        let s = |v: &str| serde_json::Value::String(v.to_string());
        let opt = |v: &Option<String>| v.as_deref().map_or(serde_json::Value::Null, s);
        m.insert("cores".into(), serde_json::Value::Number(self.cores as f64));
        m.insert("avx2".into(), serde_json::Value::Bool(self.avx2));
        m.insert("force_scalar".into(), opt(&self.force_scalar));
        m.insert("rev".into(), opt(&self.rev));
        m.insert("source_fnv64".into(), s(&self.source_fnv64));
        m.insert("seed".into(), serde_json::Value::Number(self.seed as f64));
        m.insert(
            "holdout_seed".into(),
            serde_json::Value::Number(self.holdout_seed as f64),
        );
        serde_json::Value::Object(m)
    }
}

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn git_rev(root: &Path) -> Option<String> {
    // Only ask git inside a repository of our own, never a parent one.
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

/// FNV-1a over the relative path and bytes of every file under the
/// source directories, in sorted order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            feed(rel.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
