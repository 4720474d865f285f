//! Sets of small indices as bitsets: the column sets of key inference
//! and the analysis (output-column offsets, `(quantifier, column)`
//! terms), and the box and quantifier sets their walks keep.
//!
//! A plan-cache miss derives these sets for every box several times
//! (distinct pullup in all three rewrite phases, the lint, two analysis
//! solves), and almost every box has fewer columns than the inline
//! width: held inline, such a set costs no allocation to build, copy or
//! compare. A set that reaches past the inline width moves its words to
//! the heap and keeps growing, so no arity is too wide. Every operation
//! reads and writes the words through one slice, whichever way they are
//! held, so there is one code path for narrow and wide boxes alike.

use std::fmt;
use std::ops::Range;

use crate::ids::QuantId;

/// Bits per word.
const WORD: usize = 64;
/// Words held inline: indices below 128 never allocate.
const INLINE_WORDS: usize = 2;

/// A set of `usize` indices, iterated in ascending order.
#[derive(Clone)]
pub struct ColSet(Words);

#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Spilled(Vec<u64>),
}

impl ColSet {
    /// The empty set.
    pub const fn new() -> ColSet {
        ColSet(Words::Inline([0; INLINE_WORDS]))
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline(w) => w,
            Words::Spilled(w) => w,
        }
    }

    /// The words, grown (and spilled to the heap past the inline width)
    /// to at least `len`.
    fn words_mut(&mut self, len: usize) -> &mut [u64] {
        if let Words::Inline(w) = &self.0 {
            if len > INLINE_WORDS {
                let mut spilled = w.to_vec();
                spilled.resize(len, 0);
                self.0 = Words::Spilled(spilled);
            }
        }
        match &mut self.0 {
            Words::Inline(w) => w,
            Words::Spilled(w) => {
                if w.len() < len {
                    w.resize(len, 0);
                }
                w
            }
        }
    }

    /// Add `i`; whether it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let word = &mut self.words_mut(i / WORD + 1)[i / WORD];
        let bit = 1u64 << (i % WORD);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Remove `i`; whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if !self.contains(i) {
            return false;
        }
        self.words_mut(0)[i / WORD] &= !(1u64 << (i % WORD));
        true
    }

    pub fn contains(&self, i: usize) -> bool {
        self.words()
            .get(i / WORD)
            .is_some_and(|w| w >> (i % WORD) & 1 == 1)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Whether every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &ColSet) -> bool {
        let theirs = other.words();
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !theirs.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether the two sets share a member.
    pub fn intersects(&self, other: &ColSet) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(a, b)| a & b != 0)
    }

    /// Add every member of `other`.
    pub fn union_with(&mut self, other: &ColSet) {
        let theirs = other.words();
        for (w, &t) in self.words_mut(theirs.len()).iter_mut().zip(theirs) {
            *w |= t;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words(),
            next: 0,
            word: 0,
        }
    }
}

impl Default for ColSet {
    fn default() -> ColSet {
        ColSet::new()
    }
}

/// Equal when the members are, however the words are held.
impl PartialEq for ColSet {
    fn eq(&self, other: &ColSet) -> bool {
        let (a, b) = (self.words(), other.words());
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for ColSet {}

impl fmt::Debug for ColSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// `{0,1}`: how the analysis's fact table prints a column set.
impl fmt::Display for ColSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                f.write_str(",")?;
            }
            write!(f, "{i}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<usize> for ColSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> ColSet {
        let mut set = ColSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<usize> for ColSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl<'a> IntoIterator for &'a ColSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`ColSet`].
#[derive(Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next: usize,
    /// The members of word `next - 1` not yet returned.
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.get(self.next)?;
            self.next += 1;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.next - 1) * WORD + bit)
    }
}

/// A dense numbering of `(quantifier, column)` pairs, so a [`ColSet`]
/// can hold a set of them: each quantifier's columns take one run of
/// indices, the runs in the order the quantifiers were pushed.
#[derive(Debug, Clone, Default)]
pub struct Terms {
    /// Quantifier and run length, in layout order.
    runs: Vec<(QuantId, usize)>,
}

impl Terms {
    /// Lay out `q`'s first `width` columns after every run so far.
    pub fn push(&mut self, q: QuantId, width: usize) {
        self.runs.push((q, width));
    }

    /// Lay the runs out in quantifier-id order instead, so a set of
    /// terms iterates as the `(quantifier, column)` pairs it stands for
    /// sort.
    pub fn sort(&mut self) {
        self.runs.sort_unstable_by_key(|&(q, _)| q);
    }

    /// The indices of `q`'s columns, if `q` was pushed.
    pub fn columns(&self, q: QuantId) -> Option<Range<usize>> {
        let mut start = 0;
        for &(r, width) in &self.runs {
            if r == q {
                return Some(start..start + width);
            }
            start += width;
        }
        None
    }

    /// The index of column `col` of `q`, if `q` was pushed that wide.
    pub fn index(&self, q: QuantId, col: usize) -> Option<usize> {
        self.columns(q)
            .filter(|run| col < run.len())
            .map(|run| run.start + col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(members: &[usize]) -> ColSet {
        members.iter().copied().collect()
    }

    #[test]
    fn iterates_ascending_across_words_and_the_spill() {
        let members = [0, 3, 63, 64, 127, 128, 129, 300];
        let s: ColSet = members.iter().rev().copied().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        assert_eq!(s.len(), members.len());
        assert!(ColSet::new().iter().next().is_none());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ColSet::new();
        assert!(s.is_empty());
        assert!(s.insert(70));
        assert!(!s.insert(70));
        assert!(s.insert(200));
        assert!(s.contains(70) && s.contains(200));
        assert!(!s.contains(71) && !s.contains(5000));
        assert!(s.remove(200));
        assert!(!s.remove(200));
        assert_eq!(s, set(&[70]));
        assert!(s.remove(70));
        assert!(s.is_empty());
    }

    #[test]
    fn subset_and_intersection_across_the_spill() {
        let narrow = set(&[1, 69]);
        let wide = set(&[1, 69, 129]);
        assert!(narrow.is_subset(&wide));
        assert!(!wide.is_subset(&narrow));
        assert!(ColSet::new().is_subset(&narrow));
        assert!(narrow.intersects(&wide));
        assert!(!set(&[129]).intersects(&narrow));
        assert!(!set(&[2]).intersects(&wide));
    }

    #[test]
    fn union_grows_into_the_spill() {
        let mut s = set(&[0, 64]);
        s.union_with(&set(&[129, 1]));
        assert_eq!(s, set(&[0, 1, 64, 129]));
        let mut wide = set(&[200]);
        wide.union_with(&set(&[3]));
        assert_eq!(wide, set(&[3, 200]));
    }

    #[test]
    fn equality_ignores_how_the_words_are_held() {
        // Spilled, then emptied back below the inline width.
        let mut spilled = set(&[5, 130]);
        spilled.remove(130);
        assert_eq!(spilled, set(&[5]));
        assert_eq!(set(&[5]), spilled);
        assert_ne!(set(&[5, 130]), set(&[5]));
        assert_eq!(ColSet::default(), ColSet::new());
    }

    #[test]
    fn renders_as_the_fact_table_prints_it() {
        assert_eq!(set(&[0, 1]).to_string(), "{0,1}");
        assert_eq!(set(&[129]).to_string(), "{129}");
        assert_eq!(ColSet::new().to_string(), "{}");
        assert_eq!(format!("{:?}", set(&[2, 7])), "{2, 7}");
    }

    #[test]
    fn terms_number_runs_in_push_order() {
        let mut t = Terms::default();
        t.push(QuantId(9), 3);
        t.push(QuantId(2), 2);
        assert_eq!(t.index(QuantId(9), 2), Some(2));
        assert_eq!(t.index(QuantId(2), 0), Some(3));
        assert_eq!(t.index(QuantId(2), 2), None);
        assert_eq!(t.index(QuantId(4), 0), None);
        assert_eq!(t.columns(QuantId(2)), Some(3..5));
        t.sort();
        assert_eq!(t.columns(QuantId(2)), Some(0..2));
        assert_eq!(t.index(QuantId(9), 0), Some(2));
    }
}
