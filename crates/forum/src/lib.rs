//! # symfail-forum
//!
//! The web-forum failure study of Section 4: a synthetic corpus of
//! user-posted failure reports and the rule-based classification
//! pipeline that turns free text into the paper's Table 1 (failure
//! type × user-initiated recovery action), the severity distribution
//! and the activity correlation.
//!
//! The paper mined howardforums.com, cellphoneforums.net,
//! phonescoop.com and mobiledia.com for posts between January 2003 and
//! March 2006: 533 reports, of which 466 were classifiable failure
//! entries (every Table 1 percentage is an integer multiple of one
//! entry). That raw data is long gone, so [`corpus`] generates a
//! synthetic corpus with the same joint label distribution and
//! free-format phrasing, and [`classify`] recovers the labels from the
//! text alone — the classifier only sees words, never the generator's
//! hidden labels.
//!
//! # Example
//!
//! ```
//! use symfail_forum::corpus::CorpusGenerator;
//! use symfail_forum::tables::ForumStudy;
//!
//! let corpus = CorpusGenerator::paper_sized(7).generate();
//! assert_eq!(corpus.len(), 533);
//! let study = ForumStudy::classify(&corpus);
//! assert!(study.render_table1().contains("Table 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod corpus;
pub mod tables;
