//! Command line shared by the JSON-artifact binaries (`plans`, `rebuild`,
//! `lifetime`): `<bin> [--smoke] [--out <path>]`.

use std::path::Path;

/// Parsed `[--smoke] [--out <path>]` arguments.
#[derive(Debug)]
pub struct ArtifactArgs {
    /// `--smoke`: the small CI-sized run.
    pub smoke: bool,
    /// `--out <path>`: where the JSON record goes.
    pub out: String,
}

impl ArtifactArgs {
    /// Parses the process arguments; `default_out` applies without `--out`.
    pub fn from_env(default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ArtifactArgs {
            smoke: args.iter().any(|a| a == "--smoke"),
            out: args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1).cloned())
                .unwrap_or_else(|| default_out.into()),
        }
    }

    /// Writes `json` to the `--out` path, creating its directory first.
    ///
    /// # Panics
    ///
    /// Panics if the directory or the file cannot be written.
    pub fn write(&self, json: &str) {
        if let Some(dir) = Path::new(&self.out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(&self.out, json).unwrap_or_else(|e| panic!("write {}: {e}", self.out));
        eprintln!("wrote {}", self.out);
    }
}

/// An optional number as a JSON value: one decimal, or `null`.
pub fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| format!("{x:.1}"))
}
