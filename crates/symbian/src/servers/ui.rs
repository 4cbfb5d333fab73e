//! EIKON UI framework components: listbox and edwin.
//!
//! These raise the purely application-level panics of Table 2 — the
//! ones Figure 5 shows never manifest as a high-level failure, because
//! the kernel simply terminates the offending application:
//!
//! * `EIKON-LISTBOX 3` — using a listbox with no view defined;
//! * `EIKON-LISTBOX 5` — setting an invalid current item index;
//! * `EIKCOCTL 70` — corrupt edwin (text editor) state during inline
//!   editing.

use serde::{Deserialize, Serialize};

use crate::panic::{codes, Panic};

/// A listbox control from the EIKON framework.
///
/// # Example
///
/// ```
/// use symfail_symbian::servers::ui::ListBox;
/// use symfail_symbian::panic::codes;
///
/// let mut lb = ListBox::new("Contacts");
/// lb.set_items(vec!["Alice".into(), "Bob".into()]);
/// lb.attach_view();
/// lb.set_current_item_index(1)?;
/// assert_eq!(lb.draw()?, "Bob");
/// let p = lb.set_current_item_index(7).unwrap_err();
/// assert_eq!(p.code, codes::EIKON_LISTBOX_5);
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListBox {
    app: String,
    items: Vec<String>,
    current: usize,
    has_view: bool,
}

impl ListBox {
    /// Creates an empty listbox owned by the named application, with
    /// no view attached yet.
    pub fn new(app: &str) -> Self {
        Self {
            app: app.to_string(),
            items: Vec::new(),
            current: 0,
            has_view: false,
        }
    }

    /// Sets the items; the current index resets to zero.
    pub fn set_items(&mut self, items: Vec<String>) {
        self.items = items;
        self.current = 0;
    }

    /// Attaches the view that displays the listbox.
    pub fn attach_view(&mut self) {
        self.has_view = true;
    }

    /// Sets the current item index.
    ///
    /// # Errors
    ///
    /// Raises `EIKON-LISTBOX 5` when `index` is out of range.
    pub fn set_current_item_index(&mut self, index: usize) -> Result<(), Panic> {
        if index >= self.items.len() {
            return Err(Panic::new(
                codes::EIKON_LISTBOX_5,
                self.app.clone(),
                format!(
                    "invalid current item index {index} for listbox of {} items",
                    self.items.len()
                ),
            ));
        }
        self.current = index;
        Ok(())
    }

    /// Draws the listbox, returning the highlighted item.
    ///
    /// # Errors
    ///
    /// Raises `EIKON-LISTBOX 3` when no view is attached, and
    /// `EIKON-LISTBOX 5` when the current index no longer points at an
    /// item (items shrank under it).
    pub fn draw(&self) -> Result<&str, Panic> {
        if !self.has_view {
            return Err(Panic::new(
                codes::EIKON_LISTBOX_3,
                self.app.clone(),
                "listbox used with no view defined to display the object",
            ));
        }
        self.items
            .get(self.current)
            .map(String::as_str)
            .ok_or_else(|| {
                Panic::new(
                    codes::EIKON_LISTBOX_5,
                    self.app.clone(),
                    format!(
                        "current item index {} invalid after items changed (len {})",
                        self.current,
                        self.items.len()
                    ),
                )
            })
    }
}

/// The edwin (editor window) text control, modelling the inline
/// editing state machine whose corruption raises `EIKCOCTL 70`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edwin {
    app: String,
    text: String,
    /// Span of an in-progress inline edit (e.g. predictive-text
    /// composition), if any.
    inline_span: Option<(usize, usize)>,
}

impl Edwin {
    /// Creates an empty editor owned by the named application.
    pub fn new(app: &str) -> Self {
        Self {
            app: app.to_string(),
            text: String::new(),
            inline_span: None,
        }
    }

    /// Begins an inline edit over `[start, end)` of the current text.
    ///
    /// # Errors
    ///
    /// Raises `EIKCOCTL 70` when the span is inverted or out of
    /// bounds — corrupt edwin state for inline editing.
    pub fn begin_inline_edit(&mut self, start: usize, end: usize) -> Result<(), Panic> {
        if start > end || end > self.text.chars().count() {
            return Err(self.corrupt(format!(
                "inline edit span {start}..{end} invalid for text of length {}",
                self.text.chars().count()
            )));
        }
        self.inline_span = Some((start, end));
        Ok(())
    }

    /// Commits the inline edit, replacing the span with `replacement`.
    ///
    /// # Errors
    ///
    /// Raises `EIKCOCTL 70` when no inline edit is in progress or the
    /// stored span no longer fits the text (state corrupted behind the
    /// control's back).
    pub fn commit_inline_edit(&mut self, replacement: &str) -> Result<(), Panic> {
        let (start, end) = self
            .inline_span
            .take()
            .ok_or_else(|| self.corrupt("commit with no inline edit in progress".to_string()))?;
        let chars: Vec<char> = self.text.chars().collect();
        if end > chars.len() {
            return Err(self.corrupt(format!(
                "stored inline span {start}..{end} exceeds text length {}",
                chars.len()
            )));
        }
        let mut out: String = chars[..start].iter().collect();
        out.push_str(replacement);
        out.extend(&chars[end..]);
        self.text = out;
        Ok(())
    }

    /// Replaces the whole text (outside of inline editing). Any
    /// in-progress inline edit is dropped — the corruption entry point
    /// used by the fault injector: a commit after this sees a stale
    /// span.
    pub fn set_text(&mut self, text: &str) {
        self.text = text.to_string();
    }

    fn corrupt(&self, reason: String) -> Panic {
        Panic::new(
            codes::EIKCOCTL_70,
            self.app.clone(),
            format!("corrupt edwin state for inline editing: {reason}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listbox_happy_path() {
        let mut lb = ListBox::new("Contacts");
        lb.set_items(vec!["a".into(), "b".into(), "c".into()]);
        lb.attach_view();
        lb.set_current_item_index(2).unwrap();
        assert_eq!(lb.draw().unwrap(), "c");
        assert_eq!(lb.items.len(), 3);
    }

    #[test]
    fn listbox_without_view_is_eikon_3() {
        let mut lb = ListBox::new("Contacts");
        lb.set_items(vec!["a".into()]);
        let p = lb.draw().unwrap_err();
        assert_eq!(p.code, codes::EIKON_LISTBOX_3);
        lb.attach_view();
        assert!(lb.draw().is_ok());
    }

    #[test]
    fn listbox_invalid_index_is_eikon_5() {
        let mut lb = ListBox::new("Log");
        lb.set_items(vec!["a".into()]);
        let p = lb.set_current_item_index(1).unwrap_err();
        assert_eq!(p.code, codes::EIKON_LISTBOX_5);
        assert_eq!(p.raised_by, "Log");
    }

    #[test]
    fn listbox_index_invalidated_by_shrinking_items() {
        let mut lb = ListBox::new("Log");
        lb.set_items(vec!["a".into(), "b".into()]);
        lb.attach_view();
        lb.set_current_item_index(1).unwrap();
        // Items replaced: current resets, stays valid.
        lb.set_items(vec!["only".into()]);
        assert_eq!(lb.draw().unwrap(), "only");
        // Empty items: even index 0 is invalid.
        lb.set_items(Vec::new());
        let p = lb.draw().unwrap_err();
        assert_eq!(p.code, codes::EIKON_LISTBOX_5);
    }

    #[test]
    fn edwin_inline_edit_round_trip() {
        let mut e = Edwin::new("Messages");
        e.set_text("hello wrld");
        e.begin_inline_edit(6, 10).unwrap();
        e.commit_inline_edit("world").unwrap();
        assert_eq!(e.text, "hello world");
    }

    #[test]
    fn edwin_bad_span_is_eikcoctl_70() {
        let mut e = Edwin::new("Messages");
        e.set_text("ab");
        assert_eq!(
            e.begin_inline_edit(1, 0).unwrap_err().code,
            codes::EIKCOCTL_70
        );
        assert_eq!(
            e.begin_inline_edit(0, 3).unwrap_err().code,
            codes::EIKCOCTL_70
        );
    }

    #[test]
    fn edwin_commit_without_begin_is_eikcoctl_70() {
        let mut e = Edwin::new("Messages");
        let p = e.commit_inline_edit("x").unwrap_err();
        assert_eq!(p.code, codes::EIKCOCTL_70);
    }

    #[test]
    fn edwin_stale_span_after_set_text() {
        let mut e = Edwin::new("Messages");
        e.set_text("a long line of text");
        e.begin_inline_edit(10, 14).unwrap();
        e.set_text("oops"); // corrupts the pending edit
        let p = e.commit_inline_edit("x").unwrap_err();
        assert_eq!(p.code, codes::EIKCOCTL_70);
        assert!(p.reason.contains("stored inline span"));
    }
}
