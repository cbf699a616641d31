//! The semi-structured record model flowing through operators.
//!
//! Stratosphere's Sopremo/Meteor layer operates on JSON-like records; the
//! IE operators "add specific annotations (POS tags, entity annotation,
//! token boundaries etc.) and thus actually increas[e] the size of the data
//! through the analysis pipeline" — the property behind the paper's
//! network-overload war story. [`Value::approx_bytes`] is the size model
//! the simulated cluster uses to account for that growth.

use serde::Serialize;
use std::sync::Arc;
use websift_resilience::{CodecError, Reader, Snapshot, Writer};

/// The sorted field map backing [`Value::Object`] and [`Record`].
///
/// Annotation operators build millions of tiny `{start, end}` objects per
/// run. A sorted `Vec<(key, value)>` keeps each one to a single
/// right-sized allocation (~100 bytes for a two-field object, where a
/// B-tree leaf node is over 500) and makes drops a linear walk instead of
/// a tree teardown. Iteration order is sorted by key — exactly BTreeMap's
/// — so codec bytes, JSON output, digests, and the `approx_bytes` size
/// model are unchanged by the representation swap.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FieldMap(Vec<(Arc<str>, Value)>);

impl FieldMap {
    pub fn new() -> FieldMap {
        FieldMap(Vec::new())
    }

    pub fn with_capacity(n: usize) -> FieldMap {
        FieldMap(Vec::with_capacity(n))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn idx(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.idx(key).ok().map(|i| &self.0[i].1)
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.idx(key).ok().map(|i| &mut self.0[i].1)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.idx(key).is_ok()
    }

    /// Inserts, replacing and returning any previous value for the key —
    /// `BTreeMap::insert` semantics. Appending in key order is O(1).
    pub fn insert(&mut self, key: Arc<str>, value: Value) -> Option<Value> {
        match self.0.last() {
            Some((last, _)) if **last < *key => {
                self.0.push((key, value));
                None
            }
            _ => match self.idx(&key) {
                Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
                Err(i) => {
                    self.0.insert(i, (key, value));
                    None
                }
            },
        }
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.idx(key).ok().map(|i| self.0.remove(i).1)
    }

    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.0.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for FieldMap {
    type Item = (Arc<str>, Value);
    type IntoIter = std::vec::IntoIter<(Arc<str>, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a FieldMap {
    type Item = (&'a Arc<str>, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Arc<str>, Value)>,
        fn(&'a (Arc<str>, Value)) -> (&'a Arc<str>, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(Arc<str>, Value)> for FieldMap {
    /// Last value wins on duplicate keys, matching `BTreeMap::from_iter`.
    fn from_iter<I: IntoIterator<Item = (Arc<str>, Value)>>(iter: I) -> FieldMap {
        let mut v: Vec<(Arc<str>, Value)> = iter.into_iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.dedup_by(|cur, prev| {
            if cur.0 == prev.0 {
                std::mem::swap(cur, prev);
                true
            } else {
                false
            }
        });
        FieldMap(v)
    }
}

impl std::ops::Index<&str> for FieldMap {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or_else(|| panic!("no field {key:?}"))
    }
}


/// A JSON-like value. Strings are `Arc<str>` so the residual clones on
/// fan-out and Reduce grouping are pointer bumps, not text copies — the
/// codec bytes and [`Value::approx_bytes`] model are unaffected. Object
/// (and [`Record`]) keys are `Arc<str>` too, built through [`intern`]:
/// the annotation-heavy operators create millions of tiny `{start, end}`
/// maps, and pooling the recurring key names turns every key into a
/// refcount bump instead of a heap string.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(untagged)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Array(Vec<Value>),
    Object(FieldMap),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&FieldMap> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes — the unit of the simulated
    /// cluster's network and storage accounting.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null => 4,
            Value::Bool(_) => 5,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64 + 2,
            Value::Array(a) => 2 + a.iter().map(Value::approx_bytes).sum::<u64>(),
            Value::Object(o) => {
                2 + o
                    .iter()
                    .map(|(k, v)| k.len() as u64 + 3 + v.approx_bytes())
                    .sum::<u64>()
            }
        }
    }
}

impl Snapshot for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.u8(0),
            Value::Bool(b) => {
                w.u8(1);
                w.bool(*b);
            }
            Value::Int(i) => {
                w.u8(2);
                w.i64(*i);
            }
            Value::Float(f) => {
                w.u8(3);
                w.f64(*f);
            }
            Value::Str(s) => {
                w.u8(4);
                w.str(s);
            }
            Value::Array(a) => {
                w.u8(5);
                a.encode(w);
            }
            Value::Object(o) => {
                w.u8(6);
                w.usize(o.len());
                for (k, v) in o {
                    w.str(k);
                    v.encode(w);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Value, CodecError> {
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Bool(r.bool()?),
            2 => Value::Int(r.i64()?),
            3 => Value::Float(r.f64()?),
            4 => Value::Str(r.str()?.into()),
            5 => Value::Array(Snapshot::decode(r)?),
            6 => {
                // Encoded maps are already in key order, so each insert
                // takes FieldMap's O(1) append fast path.
                let n = r.usize()?;
                // Each entry takes at least one byte, so a length beyond
                // the remaining input cannot be honest: clamp the
                // reservation and let the loop fail on truncation.
                let mut o = FieldMap::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    let k = r.str()?;
                    o.insert(intern(&k), Value::decode(r)?);
                }
                Value::Object(o)
            }
            tag => return Err(CodecError::BadTag { what: "Value", tag }),
        })
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A record: a top-level JSON object.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Record(pub FieldMap);

impl Default for Record {
    fn default() -> Self {
        Record::new()
    }
}

impl Record {
    pub fn new() -> Record {
        Record(FieldMap::new())
    }

    /// Builds a record from (key, value) pairs.
    pub fn from_pairs<const N: usize>(pairs: [(&str, Value); N]) -> Record {
        Record(pairs.into_iter().map(|(k, v)| (intern(k), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Record {
        self.0.insert(intern(key), value.into());
        self
    }

    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(key)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The document text field, the field nearly every IE operator reads.
    pub fn text(&self) -> Option<&str> {
        self.get("text").and_then(Value::as_str)
    }

    /// The text field as a shared handle: a refcount bump instead of the
    /// full-text copy operators used to make so they could keep reading
    /// the text while mutating the record.
    pub fn text_shared(&self) -> Option<std::sync::Arc<str>> {
        match self.get("text") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Same size model as `Value::Object(..).approx_bytes()` without
    /// cloning the field map — this runs once per record per operator in
    /// the executor's byte accounting.
    pub fn approx_bytes(&self) -> u64 {
        2 + self
            .0
            .iter()
            .map(|(k, v)| k.len() as u64 + 3 + v.approx_bytes())
            .sum::<u64>()
    }

    /// Pushes a value onto an array field, creating it if missing.
    pub fn push_to(&mut self, key: &str, value: Value) {
        match self.0.get_mut(key) {
            Some(Value::Array(a)) => a.push(value),
            _ => {
                self.0.insert(intern(key), Value::Array(vec![value]));
            }
        }
    }
}

impl Snapshot for Record {
    fn encode(&self, w: &mut Writer) {
        // Byte-identical to `Value::Object(self.0.clone()).encode(w)`
        // without cloning the field map.
        w.u8(6);
        w.usize(self.0.len());
        for (k, v) in &self.0 {
            w.str(k);
            v.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Record, CodecError> {
        match Value::decode(r)? {
            Value::Object(o) => Ok(Record(o)),
            _ => Err(CodecError::BadTag { what: "Record", tag: 255 }),
        }
    }
}

/// Recurring field keys across the workspace's flows, sorted for binary
/// search. Hits in [`intern`] clone a pooled `Arc<str>` (a refcount bump);
/// the list is an optimization only — unknown keys still work, they just
/// pay one allocation.
static COMMON_KEYS: &[&str] = &[
    "annotations",
    "class",
    "corpus",
    "count",
    "end",
    "entities",
    "has_markup",
    "id",
    "key",
    "links",
    "mentions",
    "method",
    "name",
    "negation",
    "page",
    "parentheses",
    "pos",
    "pronouns",
    "round",
    "score",
    "sentence",
    "sentences",
    "start",
    "tags",
    "text",
    "token",
    "tokens",
    "transcodable",
    "type",
    "url",
];

/// A shared handle for a field key: pooled for the workspace's recurring
/// names, freshly allocated otherwise. The annotation operators build
/// millions of small objects per run, and this is what keeps their key
/// strings from being individually heap-allocated and freed.
pub fn intern(key: &str) -> Arc<str> {
    static POOL: std::sync::OnceLock<Vec<Arc<str>>> = std::sync::OnceLock::new();
    let pool = POOL.get_or_init(|| COMMON_KEYS.iter().map(|&k| Arc::from(k)).collect());
    match COMMON_KEYS.binary_search(&key) {
        Ok(i) => pool[i].clone(),
        Err(_) => Arc::from(key),
    }
}

/// Builds an annotation object `{start, end, ...extra}` — the common shape
/// for sentence/token/mention annotations.
pub fn span_annotation(start: usize, end: usize, extra: &[(&str, Value)]) -> Value {
    // "end" sorts before "start", so both inserts take the append path
    // and the map is one exact-sized allocation for the common no-extra
    // case.
    let mut obj = FieldMap::with_capacity(2 + extra.len());
    obj.insert(intern("end"), Value::Int(end as i64));
    obj.insert(intern("start"), Value::Int(start as i64));
    for (k, v) in extra {
        obj.insert(intern(k), v.clone());
    }
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let mut r = Record::new();
        r.set("id", 7i64).set("text", "hello");
        assert_eq!(r.get("id").unwrap().as_int(), Some(7));
        assert_eq!(r.text(), Some("hello"));
        assert!(r.contains("text"));
        assert!(!r.contains("missing"));
        assert_eq!(r.remove("id"), Some(Value::Int(7)));
    }

    #[test]
    fn size_grows_with_annotations() {
        let mut r = Record::from_pairs([("text", Value::from("some document text"))]);
        let before = r.approx_bytes();
        for i in 0..50 {
            r.push_to("entities", span_annotation(i, i + 5, &[("type", "gene".into())]));
        }
        let after = r.approx_bytes();
        assert!(after > before * 5, "annotations must inflate records: {before} -> {after}");
    }

    /// Tag 6 (object) claiming 2^62 entries, with no entry bytes.
    const HUGE_OBJECT: [u8; 9] = [6, 0, 0, 0, 0, 0, 0, 0, 0x40];

    #[test]
    fn huge_claimed_object_length_is_a_codec_error_not_a_panic() {
        assert!(Value::decode(&mut Reader::new(&HUGE_OBJECT)).is_err());
        assert!(Record::decode(&mut Reader::new(&HUGE_OBJECT)).is_err());
        // Nested: an array whose one element is the lying object.
        let mut nested = vec![5, 1, 0, 0, 0, 0, 0, 0, 0];
        nested.extend_from_slice(&HUGE_OBJECT);
        assert!(Value::decode(&mut Reader::new(&nested)).is_err());
    }

    #[test]
    fn push_to_creates_and_appends() {
        let mut r = Record::new();
        r.push_to("xs", Value::Int(1));
        r.push_to("xs", Value::Int(2));
        assert_eq!(r.get("xs").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        let arr: Value = vec![1i64, 2, 3].into();
        assert_eq!(arr.as_array().unwrap().len(), 3);
    }

    #[test]
    fn span_annotation_shape() {
        let a = span_annotation(3, 9, &[("kind", "neg".into())]);
        let o = a.as_object().unwrap();
        assert_eq!(o["start"].as_int(), Some(3));
        assert_eq!(o["end"].as_int(), Some(9));
        assert_eq!(o["kind"].as_str(), Some("neg"));
    }

    #[test]
    fn record_codec_and_bytes_match_value_object() {
        // The non-cloning Record fast paths must stay byte-identical to
        // the generic Value::Object encoding and size model.
        let mut r = Record::from_pairs([("text", Value::from("some text")), ("id", 9i64.into())]);
        r.push_to("entities", span_annotation(0, 4, &[("type", "gene".into())]));
        let as_value = Value::Object(r.0.clone());
        assert_eq!(r.approx_bytes(), as_value.approx_bytes());
        let mut w1 = Writer::new();
        r.encode(&mut w1);
        let mut w2 = Writer::new();
        as_value.encode(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn str_values_clone_cheaply() {
        let s: Arc<str> = Arc::from("shared text");
        let v = Value::Str(s.clone());
        let v2 = v.clone();
        match (&v, &v2) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
        assert_eq!(Arc::strong_count(&s), 3);
    }

    #[test]
    fn approx_bytes_sane() {
        assert!(Value::Null.approx_bytes() < 10);
        assert_eq!(Value::Str("abcd".into()).approx_bytes(), 6);
        let obj = Value::Object(
            [(intern("k"), Value::Int(1))].into_iter().collect(),
        );
        assert!(obj.approx_bytes() > 8);
    }
}
