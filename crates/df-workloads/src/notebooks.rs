//! A synthetic Jupyter-notebook corpus and the call-extraction analysis of paper §4.6.
//!
//! The paper analyses ~1M GitHub notebooks (Rule et al.) to ask which pandas functions
//! dominate interactive workloads (Figure 7). That corpus is not available here, so
//! this module generates a synthetic corpus whose per-function popularity follows the
//! ranking the paper reports (inspection functions such as `head`/`shape`/`plot`,
//! aggregation such as `mean`/`sum`, point access via `loc`/`iloc`, relational
//! `groupby`/`merge`, with long-tail functions like `kurtosis` appearing rarely), and
//! an extractor that recomputes the Figure 7 statistics from the generated scripts.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use df_types::cell::{cell, Cell};
use df_types::error::DfResult;

use df_core::dataframe::DataFrame;

/// Relative popularity weights of pandas functions, following the qualitative ranking
/// of paper §4.6 / Figure 7 (most popular on the left, long tail on the right).
pub(crate) const FUNCTION_WEIGHTS: [(&str, u32); 24] = [
    ("read_csv", 90),
    ("head", 85),
    ("plot", 70),
    ("shape", 60),
    ("loc", 55),
    ("mean", 50),
    ("sum", 48),
    ("groupby", 45),
    ("drop", 40),
    ("apply", 38),
    ("iloc", 35),
    ("append", 32),
    ("merge", 30),
    ("max", 28),
    ("astype", 25),
    ("values", 24),
    ("index", 22),
    ("columns", 20),
    ("describe", 16),
    ("fillna", 14),
    ("pivot", 8),
    ("transpose", 5),
    ("cov", 3),
    ("kurtosis", 1),
];

/// Configuration for corpus generation.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of notebook scripts to generate.
    pub notebooks: usize,
    /// Average number of pandas calls per notebook.
    pub mean_calls_per_notebook: usize,
    /// Fraction of notebooks that use pandas at all (the paper found ~40%).
    pub pandas_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            notebooks: 1_000,
            mean_calls_per_notebook: 12,
            pandas_fraction: 0.4,
            seed: 23,
        }
    }
}

/// A generated notebook: an ordered list of statements ("cells").
#[derive(Debug, Clone)]
pub struct Notebook {
    /// Script lines, e.g. `df = pd.read_csv("data.csv")` or `df.head()`.
    pub statements: Vec<String>,
    /// Whether the notebook imports pandas at all.
    pub uses_pandas: bool,
}

/// Generate a synthetic corpus.
pub fn generate_corpus(config: &CorpusConfig) -> Vec<Notebook> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_weight: u32 = FUNCTION_WEIGHTS.iter().map(|(_, w)| *w).sum();
    (0..config.notebooks)
        .map(|_| {
            let uses_pandas = rng.gen_bool(config.pandas_fraction);
            if !uses_pandas {
                return Notebook {
                    statements: vec![
                        "import numpy as np".to_string(),
                        "x = np.arange(10)".to_string(),
                    ],
                    uses_pandas: false,
                };
            }
            let calls = rng.gen_range(1..=config.mean_calls_per_notebook * 2);
            let mut statements = vec!["import pandas as pd".to_string()];
            for _ in 0..calls {
                let mut pick = rng.gen_range(0..total_weight);
                let mut chosen = FUNCTION_WEIGHTS[0].0;
                for (name, weight) in FUNCTION_WEIGHTS {
                    if pick < weight {
                        chosen = name;
                        break;
                    }
                    pick -= weight;
                }
                let statement = match chosen {
                    "read_csv" => "df = pd.read_csv(\"data.csv\")".to_string(),
                    "loc" | "iloc" => format!("df.{chosen}[0]"),
                    "shape" | "values" | "index" | "columns" => format!("df.{chosen}"),
                    other => format!("df.{other}()"),
                };
                statements.push(statement);
            }
            Notebook {
                statements,
                uses_pandas: true,
            }
        })
        .collect()
}

/// Per-function usage statistics extracted from a corpus (the Figure 7 quantities).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageStats {
    /// Total occurrences of each function across all statements.
    pub total_occurrences: HashMap<String, u64>,
    /// Number of notebooks each function occurs in at least once.
    pub notebooks_containing: HashMap<String, u64>,
    /// Number of notebooks that use pandas.
    pub pandas_notebooks: u64,
    /// Total notebooks analysed.
    pub total_notebooks: u64,
}

/// Extract pandas method invocations from a corpus, mirroring the paper's
/// `ast`-based extraction (here a lexical scan over `df.<name>` / `pd.<name>` calls).
pub fn analyze_corpus(corpus: &[Notebook]) -> UsageStats {
    let mut stats = UsageStats {
        total_notebooks: corpus.len() as u64,
        ..UsageStats::default()
    };
    for notebook in corpus {
        if notebook.uses_pandas {
            stats.pandas_notebooks += 1;
        }
        let mut seen_in_notebook: HashMap<String, bool> = HashMap::new();
        for statement in &notebook.statements {
            for (name, _) in FUNCTION_WEIGHTS {
                let as_method = format!(".{name}");
                let mut count = 0usize;
                let mut start = 0usize;
                while let Some(pos) = statement[start..].find(&as_method) {
                    count += 1;
                    start += pos + as_method.len();
                }
                if count > 0 {
                    *stats.total_occurrences.entry(name.to_string()).or_insert(0) += count as u64;
                    seen_in_notebook.insert(name.to_string(), true);
                }
            }
        }
        for name in seen_in_notebook.keys() {
            *stats.notebooks_containing.entry(name.clone()).or_insert(0) += 1;
        }
    }
    stats
}

/// Render the usage statistics as a dataframe sorted by total occurrences (the Figure 7
/// histogram), so it can be manipulated with the library itself.
pub fn usage_dataframe(stats: &UsageStats) -> DfResult<DataFrame> {
    let mut rows: Vec<(String, u64, u64)> = stats
        .total_occurrences
        .iter()
        .map(|(name, &total)| {
            let files = stats.notebooks_containing.get(name).copied().unwrap_or(0);
            (name.clone(), total, files)
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let data: Vec<Vec<Cell>> = rows
        .into_iter()
        .map(|(name, total, files)| vec![cell(name), cell(total as i64), cell(files as i64)])
        .collect();
    DataFrame::from_rows(vec!["function", "occurrences", "notebooks"], data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Vec<Notebook> {
        generate_corpus(&CorpusConfig {
            notebooks: 400,
            mean_calls_per_notebook: 10,
            pandas_fraction: 0.4,
            seed: 5,
        })
    }

    #[test]
    fn corpus_respects_pandas_fraction() {
        let corpus = small_corpus();
        let stats = analyze_corpus(&corpus);
        assert_eq!(stats.total_notebooks, 400);
        let fraction = stats.pandas_notebooks as f64 / stats.total_notebooks as f64;
        assert!((0.3..0.5).contains(&fraction), "fraction = {fraction}");
    }

    #[test]
    fn popular_functions_dominate_the_long_tail() {
        let stats = analyze_corpus(&small_corpus());
        let head = stats.total_occurrences.get("head").copied().unwrap_or(0);
        let kurtosis = stats
            .total_occurrences
            .get("kurtosis")
            .copied()
            .unwrap_or(0);
        assert!(head > kurtosis * 5, "head={head} kurtosis={kurtosis}");
        let read_csv = stats
            .total_occurrences
            .get("read_csv")
            .copied()
            .unwrap_or(0);
        assert!(read_csv > 0);
    }

    #[test]
    fn usage_dataframe_is_sorted_by_occurrences() {
        let stats = analyze_corpus(&small_corpus());
        let df = usage_dataframe(&stats).unwrap();
        assert_eq!(df.n_cols(), 3);
        let first = df.cell(0, 1).unwrap().as_i64().unwrap();
        let last = df.cell(df.n_rows() - 1, 1).unwrap().as_i64().unwrap();
        assert!(first >= last);
        // notebooks containing a function can never exceed its total occurrences.
        for i in 0..df.n_rows() {
            let occurrences = df.cell(i, 1).unwrap().as_i64().unwrap();
            let notebooks = df.cell(i, 2).unwrap().as_i64().unwrap();
            assert!(notebooks <= occurrences);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_corpus(&CorpusConfig::default());
        let b = generate_corpus(&CorpusConfig::default());
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].statements, b[0].statements);
    }
}
