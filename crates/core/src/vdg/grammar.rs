//! Syntax tree of a vDataGuide specification.

use std::fmt;

/// A parsed vDataGuide specification: a forest of labeled nodes.
///
/// The printed grammar derives a single root (`S ← label P`); we accept a
/// sequence of roots because the paper's DataGuide model is a forest and
/// Algorithm 1 iterates `roots(T)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VdgSpec {
    /// Top-level labeled nodes.
    pub roots: Vec<VdgNode>,
}

/// A labeled node with its child list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VdgNode {
    /// The (possibly dot-qualified) label naming an original type.
    pub label: String,
    /// Children in specification order.
    pub children: Vec<VdgChild>,
}

/// One child item: a nested labeled node, `*`, or `**`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VdgChild {
    /// A labeled child with its own children.
    Node(VdgNode),
    /// `*` — the unmentioned children of the parent's original type, each
    /// carried with its original subtree.
    Star,
    /// `**` — all descendants of the parent's original type, preserving the
    /// original hierarchy.
    DoubleStar,
}

impl VdgSpec {
    /// Parses a specification string. See [`crate::vdg::parse_vdg`].
    pub fn parse(input: &str) -> Result<Self, crate::vdg::VdgError> {
        crate::vdg::parse_vdg(input)
    }
}

impl fmt::Display for VdgSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

impl fmt::Display for VdgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)?;
        if !self.children.is_empty() {
            f.write_str(" { ")?;
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    f.write_str(" ")?;
                }
                match c {
                    VdgChild::Node(n) => write!(f, "{n}")?,
                    VdgChild::Star => f.write_str("*")?,
                    VdgChild::DoubleStar => f.write_str("**")?,
                }
            }
            f.write_str(" }")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;

    #[test]
    fn display_round_trips_through_parse() {
        let spec = VdgSpec::parse("title { author { name } }").must();
        assert_eq!(spec.to_string(), "title { author { name } }");
        let again = VdgSpec::parse(&spec.to_string()).must();
        assert_eq!(spec, again);
    }

    #[test]
    fn display_of_stars() {
        let spec = VdgSpec::parse("data { ** } extra { * }").must();
        assert_eq!(spec.to_string(), "data { ** } extra { * }");
    }
}
