//! The wiki hosting model (§5: "host the repository on the main long-lived
//! community site, the Bx wiki").
//!
//! [`WikiSite`] models the wikidot-style site: named pages whose **old
//! revisions are retained**. [`render`] and [`parse`] convert between the
//! structured [`crate::template::ExampleEntry`] and a canonical wiki
//! markup; [`crate::wiki_bx`] maintains consistency between the structured
//! repository and the site *via a bidirectional transformation*, exactly
//! as §5.4 muses.

pub mod parse;
pub mod render;

pub use parse::parse_entry;
pub use render::render_entry;

use std::collections::BTreeMap;

/// An in-process model of the wiki: pages with retained revision history.
///
/// This is the documented substitution for the paper's live wikidot site
/// (see DESIGN.md): page naming, old-revision retention and markup
/// round-tripping are preserved; HTTP is not.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WikiSite {
    pages: BTreeMap<String, Vec<String>>,
}

impl WikiSite {
    /// An empty site.
    pub fn new() -> WikiSite {
        WikiSite::default()
    }

    /// The current content of a page.
    pub fn current(&self, page: &str) -> Option<&str> {
        self.pages
            .get(page)
            .and_then(|revs| revs.last())
            .map(String::as_str)
    }

    /// All revisions of a page, oldest first.
    pub fn revisions(&self, page: &str) -> &[String] {
        self.pages.get(page).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Write a page: pushes a new revision unless the content is unchanged
    /// (so synchronisation is hippocratic at the revision level too).
    pub fn set_page(&mut self, page: &str, content: String) {
        let revs = self.pages.entry(page.to_string()).or_default();
        if revs.last().map(String::as_str) != Some(content.as_str()) {
            revs.push(content);
        }
    }

    /// Delete a page and its history.
    pub fn delete_page(&mut self, page: &str) -> bool {
        self.pages.remove(page).is_some()
    }

    /// Page names in the `examples:` namespace, sorted.
    pub fn example_pages(&self) -> Vec<&str> {
        self.pages
            .keys()
            .filter(|p| p.starts_with("examples:") && p.as_str() != "examples:home")
            .map(String::as_str)
            .collect()
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when there are no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_page_tracks_revisions() {
        let mut w = WikiSite::new();
        w.set_page("examples:composers", "v1".to_string());
        w.set_page("examples:composers", "v2".to_string());
        assert_eq!(w.current("examples:composers"), Some("v2"));
        assert_eq!(
            w.revisions("examples:composers"),
            &["v1".to_string(), "v2".to_string()]
        );
    }

    #[test]
    fn unchanged_writes_are_no_ops() {
        let mut w = WikiSite::new();
        w.set_page("p", "same".to_string());
        w.set_page("p", "same".to_string());
        assert_eq!(w.revisions("p").len(), 1);
    }

    #[test]
    fn example_namespace_filter() {
        let mut w = WikiSite::new();
        w.set_page("examples:home", "index".to_string());
        w.set_page("examples:composers", "c".to_string());
        w.set_page("start", "welcome".to_string());
        assert_eq!(w.example_pages(), vec!["examples:composers"]);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn delete_page_removes_history() {
        let mut w = WikiSite::new();
        w.set_page("p", "x".to_string());
        assert!(w.delete_page("p"));
        assert!(!w.delete_page("p"));
        assert!(w.current("p").is_none());
        assert!(w.revisions("p").is_empty());
    }
}
