//! Serialization: JSON (via the in-tree `taxoglimpse-json` crate) and a
//! line-oriented TSV format.
//!
//! The TSV format is one node per line, level order:
//! `id \t parent_id_or_dash \t name`. It round-trips any taxonomy and is
//! convenient for eyeballing synthetic data.

use crate::arena::Taxonomy;
use crate::builder::{BuildError, TaxonomyBuilder};
use std::fmt;
use taxoglimpse_json::ToJson;

/// Flat, serialization-friendly representation of a taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTaxonomy {
    /// Taxonomy label.
    pub label: String,
    /// Node names, index-aligned with `parents`.
    pub names: Vec<String>,
    /// Parent index per node (`None` for roots).
    pub parents: Vec<Option<usize>>,
}

taxoglimpse_json::struct_json!(FlatTaxonomy { label, names, parents });

/// Errors from parsing the TSV format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsvError {
    /// A line did not have three tab-separated fields.
    BadLine {
        /// 1-based line number.
        line_no: usize,
    },
    /// A field that should be an integer was not.
    BadNumber {
        /// 1-based line number.
        line_no: usize,
    },
    /// Node ids were not dense `0..n` in order.
    NonDenseIds {
        /// 1-based line number.
        line_no: usize,
    },
    /// The edges failed structural validation.
    Build(BuildError),
}

impl fmt::Display for TsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsvError::BadLine { line_no } => write!(f, "line {line_no}: expected 3 fields"),
            TsvError::BadNumber { line_no } => write!(f, "line {line_no}: bad integer"),
            TsvError::NonDenseIds { line_no } => write!(f, "line {line_no}: ids must be dense 0..n"),
            TsvError::Build(e) => write!(f, "structure error: {e}"),
        }
    }
}

impl std::error::Error for TsvError {}

impl Taxonomy {
    /// Convert to the flat serialization representation.
    pub fn to_flat(&self) -> FlatTaxonomy {
        FlatTaxonomy {
            label: self.label().to_owned(),
            names: self.ids().map(|id| self.name(id).to_owned()).collect(),
            parents: self.ids().map(|id| self.parent(id).map(|p| p.index())).collect(),
        }
    }

    /// Reconstruct from the flat representation.
    pub fn from_flat(flat: &FlatTaxonomy) -> Result<Self, BuildError> {
        TaxonomyBuilder::from_edges(flat.label.clone(), &flat.names, &flat.parents)
    }

    /// Serialize as JSON.
    pub fn to_json(&self) -> String {
        self.to_flat().to_json().render()
    }

    /// Deserialize from JSON produced by [`Taxonomy::to_json`].
    pub fn from_json(json: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let flat: FlatTaxonomy = taxoglimpse_json::from_str(json)?;
        Ok(Self::from_flat(&flat)?)
    }

    /// Serialize in the TSV format (header line `# label`, then
    /// `id \t parent-or-dash \t name` per node).
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.name_bytes() + self.len() * 10);
        out.push_str("# ");
        out.push_str(self.label());
        out.push('\n');
        for id in self.ids() {
            match self.parent(id) {
                Some(p) => out.push_str(&format!("{}\t{}\t{}\n", id.raw(), p.raw(), self.name(id))),
                None => out.push_str(&format!("{}\t-\t{}\n", id.raw(), self.name(id))),
            }
        }
        out
    }

    /// Parse the TSV format.
    pub fn from_tsv(tsv: &str) -> Result<Self, TsvError> {
        let mut label = String::from("unnamed");
        let mut names = Vec::new();
        let mut parents = Vec::new();
        for (i, line) in tsv.lines().enumerate() {
            let line_no = i + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                label = rest.to_owned();
                continue;
            }
            let mut fields = line.splitn(3, '\t');
            let (Some(id_s), Some(parent_s), Some(name)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return Err(TsvError::BadLine { line_no });
            };
            let id: usize = id_s.parse().map_err(|_| TsvError::BadNumber { line_no })?;
            if id != names.len() {
                return Err(TsvError::NonDenseIds { line_no });
            }
            let parent = if parent_s == "-" {
                None
            } else {
                Some(parent_s.parse().map_err(|_| TsvError::BadNumber { line_no })?)
            };
            names.push(name.to_owned());
            parents.push(parent);
        }
        TaxonomyBuilder::from_edges(label, &names, &parents).map_err(TsvError::Build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, TaxonomyBuilder};

    fn sample() -> Taxonomy {
        let mut b = TaxonomyBuilder::new("fixture");
        let r = b.add_root("Root Thing");
        let a = b.add_child(r, "Child A");
        b.add_child(a, "Grand-child");
        b.add_child(r, "Child B");
        b.build().unwrap()
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let back = Taxonomy::from_json(&t.to_json()).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.label(), "fixture");
        assert_eq!(back.len(), t.len());
        // Ids are not stable across round trips (nodes are re-inserted in
        // level order); compare canonical (name, level, parent-name) sets.
        let canon = |t: &Taxonomy| {
            let mut v: Vec<(String, usize, Option<String>)> = t
                .ids()
                .map(|id| {
                    (
                        t.name(id).to_owned(),
                        t.level(id),
                        t.parent(id).map(|p| t.name(p).to_owned()),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&t), canon(&back));
    }

    #[test]
    fn tsv_round_trip() {
        let t = sample();
        let tsv = t.to_tsv();
        assert!(tsv.starts_with("# fixture\n"));
        let back = Taxonomy::from_tsv(&tsv).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.name(back.roots()[0]), "Root Thing");
    }

    #[test]
    fn tsv_rejects_bad_lines() {
        assert!(matches!(
            Taxonomy::from_tsv("0\tjunk"),
            Err(TsvError::BadLine { line_no: 1 })
        ));
        assert!(matches!(
            Taxonomy::from_tsv("x\t-\tname"),
            Err(TsvError::BadNumber { line_no: 1 })
        ));
        assert!(matches!(
            Taxonomy::from_tsv("5\t-\tname"),
            Err(TsvError::NonDenseIds { line_no: 1 })
        ));
    }

    #[test]
    fn tsv_rejects_cycles() {
        let tsv = "0\t1\ta\n1\t0\tb\n";
        assert!(matches!(Taxonomy::from_tsv(tsv), Err(TsvError::Build(_))));
    }

    /// Regression: mismatched `names`/`parents` arrays used to trip an
    /// assertion in `from_edges` instead of returning an error.
    #[test]
    fn json_rejects_mismatched_arrays() {
        let err = Taxonomy::from_json(r#"{"label":"x","names":["a"],"parents":[]}"#).unwrap_err();
        assert_eq!(err.to_string(), "1 names but 0 parents");
    }

    #[test]
    fn names_with_tabs_survive_json_but_not_tsv_format_choice() {
        // JSON handles any name; TSV callers should avoid embedded tabs.
        let mut b = TaxonomyBuilder::new("t");
        b.add_root("weird\tname");
        let t = b.build().unwrap();
        let back = Taxonomy::from_json(&t.to_json()).unwrap();
        assert_eq!(back.name(back.roots()[0]), "weird\tname");
    }
}
