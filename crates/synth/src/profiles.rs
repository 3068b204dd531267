//! Structural profiles of the ten taxonomies — the paper's Table 1.
//!
//! Each profile records the exact per-level node counts, which the
//! generator reproduces verbatim at `scale = 1.0`.

use crate::kind::TaxonomyKind;

/// How child names relate to parent names in a domain — the surface-form
/// regime the paper's analysis repeatedly leans on (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameRegime {
    /// Compound product noun phrases; children sometimes reuse the
    /// parent's head noun ("Kitchen Appliances" → "Small Kitchen
    /// Appliances").
    Shopping,
    /// CamelCase web types; children often extend the parent stem.
    SchemaOrg,
    /// Research-concept phrases.
    AcmCcs,
    /// Feature-class codes plus descriptions.
    GeoNames,
    /// Language/family names — children diverge from parents (low
    /// surface similarity; the regime under which LLMs fare worst).
    Glottolog,
    /// Hierarchical disease codes: a child's code extends its parent's.
    Icd,
    /// Adverse-event phrases ending in "AE"; children embed the parent
    /// phrase nearly whole (very high similarity).
    Oae,
    /// Linnean ranks; the species level embeds the genus name (the
    /// paper's explanation for the NCBI last-level accuracy uplift).
    Ncbi,
}

/// Structural profile of one taxonomy (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct TaxonomyProfile {
    /// Which taxonomy this profiles.
    pub kind: TaxonomyKind,
    /// Exact node count per level, root level first. The first entry is
    /// also the number of trees.
    pub nodes_per_level: &'static [usize],
    /// Name-morphology regime.
    pub regime: NameRegime,
    /// Figure-2 popularity anchor: mean google-hit count per concept
    /// (order of magnitude; the paper reports the ordering, not exact
    /// values).
    pub popularity_hits: f64,
}

impl TaxonomyProfile {
    /// The canonical profile for `kind`, straight from Table 1. It
    /// allocates nothing, so per-question callers may use it freely.
    pub fn of(kind: TaxonomyKind) -> Self {
        let (nodes_per_level, regime, popularity_hits): (&[usize], _, f64) = match kind {
            TaxonomyKind::Ebay => {
                (&[13, 110, 472], NameRegime::Shopping, 2.0e8)
            }
            TaxonomyKind::Amazon => (
                &[41, 507, 3910, 13579, 25777],
                NameRegime::Shopping,
                9.0e7,
            ),
            TaxonomyKind::Google => {
                (&[21, 192, 1349, 2203, 1830], NameRegime::Shopping, 6.0e7)
            }
            TaxonomyKind::Schema => (
                &[3, 17, 215, 403, 436, 272],
                NameRegime::SchemaOrg,
                1.1e8,
            ),
            TaxonomyKind::AcmCcs => {
                (&[13, 84, 543, 1087, 386], NameRegime::AcmCcs, 8.0e6)
            }
            TaxonomyKind::GeoNames => (&[9, 680], NameRegime::GeoNames, 3.0e6),
            TaxonomyKind::Glottolog => (
                &[245, 712, 1048, 1205, 1366, 7393],
                NameRegime::Glottolog,
                9.0e5,
            ),
            TaxonomyKind::Icd10Cm => {
                (&[22, 155, 963, 3383], NameRegime::Icd, 2.5e6)
            }
            TaxonomyKind::Oae => {
                (&[181, 1854, 3817, 2587, 1108], NameRegime::Oae, 4.0e5)
            }
            TaxonomyKind::Ncbi => (
                &[53, 309, 514, 1859, 10215, 107615, 2069560],
                NameRegime::Ncbi,
                1.5e5,
            ),
        };
        TaxonomyProfile { kind, nodes_per_level, regime, popularity_hits }
    }

    /// Total entity count (the Table-1 `# of entities` column).
    pub fn num_entities(&self) -> usize {
        self.nodes_per_level.iter().sum()
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.nodes_per_level.len()
    }

    /// Number of trees (root-level node count).
    pub fn num_trees(&self) -> usize {
        self.nodes_per_level.first().copied().unwrap_or(0)
    }

    /// Per-level counts scaled by `scale` (rounded, floored at the tree
    /// count for level 0 and at 2 elsewhere so sibling structure
    /// survives), used for test-sized generations.
    pub fn scaled_levels(&self, scale: f64) -> Vec<usize> {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        if (scale - 1.0).abs() < f64::EPSILON {
            return self.nodes_per_level.to_vec();
        }
        self.nodes_per_level
            .iter()
            .enumerate()
            .map(|(level, &n)| {
                let scaled = ((n as f64) * scale).round() as usize;
                if level == 0 {
                    // Keep at least 4 trees so root-level negatives and
                    // 4-option MCQs (true parent + 3 distractors) exist.
                    scaled.clamp(4.min(n), n)
                } else {
                    scaled.clamp(2.min(n), n)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `# of entities` column of Table 1, verified against the shapes.
    #[test]
    fn entity_totals_match_table_1() {
        let expected = [
            (TaxonomyKind::Ebay, 595),
            (TaxonomyKind::Amazon, 43814),
            (TaxonomyKind::Google, 5595),
            (TaxonomyKind::Schema, 1346),
            (TaxonomyKind::AcmCcs, 2113),
            (TaxonomyKind::GeoNames, 689),
            (TaxonomyKind::Glottolog, 11969),
            (TaxonomyKind::Icd10Cm, 4523),
            (TaxonomyKind::Oae, 9547),
            (TaxonomyKind::Ncbi, 2190125),
        ];
        for (kind, total) in expected {
            assert_eq!(TaxonomyProfile::of(kind).num_entities(), total, "{kind}");
        }
    }

    #[test]
    fn level_and_tree_counts_match_table_1() {
        let expected = [
            (TaxonomyKind::Ebay, 3, 13),
            (TaxonomyKind::Amazon, 5, 41),
            (TaxonomyKind::Google, 5, 21),
            (TaxonomyKind::Schema, 6, 3),
            (TaxonomyKind::AcmCcs, 5, 13),
            (TaxonomyKind::GeoNames, 2, 9),
            (TaxonomyKind::Glottolog, 6, 245),
            (TaxonomyKind::Icd10Cm, 4, 22),
            (TaxonomyKind::Oae, 5, 181),
            (TaxonomyKind::Ncbi, 7, 53),
        ];
        for (kind, levels, trees) in expected {
            let p = TaxonomyProfile::of(kind);
            assert_eq!(p.num_levels(), levels, "{kind} levels");
            assert_eq!(p.num_trees(), trees, "{kind} trees");
        }
    }

    #[test]
    fn scaled_levels_identity_at_one() {
        let p = TaxonomyProfile::of(TaxonomyKind::Ncbi);
        assert_eq!(p.scaled_levels(1.0), p.nodes_per_level);
    }

    #[test]
    fn scaled_levels_shrink_but_keep_structure() {
        let p = TaxonomyProfile::of(TaxonomyKind::Ncbi);
        let s = p.scaled_levels(0.01);
        assert_eq!(s.len(), p.num_levels());
        assert!(s[0] >= 3);
        assert!(s.iter().all(|&n| n >= 2));
        assert!(s[6] < p.nodes_per_level[6] / 50);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn scaled_levels_reject_bad_scale() {
        TaxonomyProfile::of(TaxonomyKind::Ebay).scaled_levels(0.0);
    }

    #[test]
    fn popularity_preserves_paper_ordering() {
        // Figure 2: common taxonomies (eBay, Schema, Amazon, Google) are
        // more popular than all specialized ones.
        let common_min = [TaxonomyKind::Ebay, TaxonomyKind::Schema, TaxonomyKind::Amazon, TaxonomyKind::Google]
            .iter()
            .map(|&k| TaxonomyProfile::of(k).popularity_hits)
            .fold(f64::INFINITY, f64::min);
        let specialized_max = [
            TaxonomyKind::AcmCcs,
            TaxonomyKind::GeoNames,
            TaxonomyKind::Glottolog,
            TaxonomyKind::Icd10Cm,
            TaxonomyKind::Oae,
            TaxonomyKind::Ncbi,
        ]
        .iter()
        .map(|&k| TaxonomyProfile::of(k).popularity_hits)
        .fold(0.0, f64::max);
        assert!(common_min > specialized_max);
    }
}
