//! Unit beans — the Model-side state objects of §3.
//!
//! "A unit service is a Java class, which is responsible for computing the
//! unit's content and producing a collection of unit beans, which are
//! JavaBeans objects belonging to the Model, holding the content of each
//! unit."
//!
//! Beans carry typed values straight from the result set; the View turns
//! them into [`presentation::UnitContent`] without touching the database.
//! Beans also cross the application-server boundary (Fig. 6), so they
//! serialize to/from JSON.

use relstore::Value;
use std::sync::Arc;

/// One row of bean properties: `(property name, value)` in bean order.
///
/// Property names are shared: the unit service mints them once per result
/// set and every row of the result holds a reference, so a cached bean
/// keeps one copy of each name however many rows it has.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BeanRow {
    pub values: Vec<(Arc<str>, Value)>,
}

impl BeanRow {
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The row's `oid`, when present.
    pub fn oid(&self) -> Option<i64> {
        match self.get("oid") {
            Some(Value::Integer(i)) => Some(*i),
            _ => None,
        }
    }
}

/// A hierarchy row with children (the NEST structure of Fig. 1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NestedBeanRow {
    pub row: BeanRow,
    pub children: Vec<NestedBeanRow>,
}

/// The computed content of one unit.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitBean {
    /// Data unit: at most one instance.
    Single(Option<BeanRow>),
    /// Index-family units: ordered rows; `total` is the full count for
    /// scroller paging.
    Rows { rows: Vec<BeanRow>, total: usize },
    /// Hierarchical index.
    Nested(Vec<NestedBeanRow>),
    /// Entry unit: no database content.
    Form,
    /// Plug-in unit output.
    Raw(String),
}

impl UnitBean {
    /// The oid this bean propagates along outgoing links: the single
    /// instance's oid, or the first row's (automatic default selection).
    pub fn propagated_oid(&self) -> Option<i64> {
        match self {
            UnitBean::Single(Some(r)) => r.oid(),
            UnitBean::Rows { rows, .. } => rows.first().and_then(|r| r.oid()),
            UnitBean::Nested(rows) => rows.first().and_then(|r| r.row.oid()),
            _ => None,
        }
    }

    /// An attribute of the propagated instance.
    pub fn propagated_attribute(&self, name: &str) -> Option<Value> {
        match self {
            UnitBean::Single(Some(r)) => r.get(name).cloned(),
            UnitBean::Rows { rows, .. } => rows.first().and_then(|r| r.get(name)).cloned(),
            UnitBean::Nested(rows) => rows.first().and_then(|r| r.row.get(name)).cloned(),
            _ => None,
        }
    }

    pub fn row_count(&self) -> usize {
        match self {
            UnitBean::Single(r) => usize::from(r.is_some()),
            UnitBean::Rows { rows, .. } => rows.len(),
            UnitBean::Nested(rows) => rows.len(),
            _ => 0,
        }
    }
}

// ---- JSON marshalling (the Fig. 6 EJB boundary) ---------------------------

fn value_to_json(v: &Value) -> serde_json::Value {
    match v {
        Value::Null => serde_json::Value::Null,
        Value::Integer(i) => serde_json::json!({ "t": "i", "v": i }),
        Value::Real(r) => serde_json::json!({ "t": "r", "v": r }),
        Value::Text(s) => serde_json::json!({ "t": "s", "v": &**s }),
        Value::Boolean(b) => serde_json::json!({ "t": "b", "v": b }),
        Value::Timestamp(t) => serde_json::json!({ "t": "ts", "v": t }),
        Value::Blob(b) => serde_json::json!({ "t": "x", "v": b }),
    }
}

fn value_from_json(j: &serde_json::Value) -> Option<Value> {
    if j.is_null() {
        return Some(Value::Null);
    }
    let t = j.get("t")?.as_str()?;
    let v = j.get("v")?;
    Some(match t {
        "i" => Value::Integer(v.as_i64()?),
        "r" => Value::Real(v.as_f64()?),
        "s" => Value::Text(v.as_str()?.into()),
        "b" => Value::Boolean(v.as_bool()?),
        "ts" => Value::Timestamp(v.as_i64()?),
        "x" => Value::Blob(
            v.as_array()?
                .iter()
                .filter_map(|b| b.as_u64().map(|b| b as u8))
                .collect(),
        ),
        _ => return None,
    })
}

fn row_to_json(r: &BeanRow) -> serde_json::Value {
    serde_json::Value::Array(
        r.values
            .iter()
            .map(|(n, v)| serde_json::json!([&**n, value_to_json(v)]))
            .collect(),
    )
}

fn row_from_json(j: &serde_json::Value) -> Option<BeanRow> {
    let arr = j.as_array()?;
    let mut values = Vec::with_capacity(arr.len());
    for pair in arr {
        let p = pair.as_array()?;
        values.push((Arc::from(p.first()?.as_str()?), value_from_json(p.get(1)?)?));
    }
    Some(BeanRow { values })
}

fn nested_to_json(r: &NestedBeanRow) -> serde_json::Value {
    serde_json::json!({
        "row": row_to_json(&r.row),
        "children": r.children.iter().map(nested_to_json).collect::<Vec<_>>(),
    })
}

fn nested_from_json(j: &serde_json::Value) -> Option<NestedBeanRow> {
    Some(NestedBeanRow {
        row: row_from_json(j.get("row")?)?,
        children: j
            .get("children")?
            .as_array()?
            .iter()
            .map(nested_from_json)
            .collect::<Option<Vec<_>>>()?,
    })
}

impl UnitBean {
    /// Marshal for the application-server boundary.
    pub fn to_json(&self) -> serde_json::Value {
        match self {
            UnitBean::Single(r) => serde_json::json!({
                "kind": "single",
                "row": r.as_ref().map(row_to_json),
            }),
            UnitBean::Rows { rows, total } => serde_json::json!({
                "kind": "rows",
                "rows": rows.iter().map(row_to_json).collect::<Vec<_>>(),
                "total": total,
            }),
            UnitBean::Nested(rows) => serde_json::json!({
                "kind": "nested",
                "rows": rows.iter().map(nested_to_json).collect::<Vec<_>>(),
            }),
            UnitBean::Form => serde_json::json!({ "kind": "form" }),
            UnitBean::Raw(s) => serde_json::json!({ "kind": "raw", "html": s }),
        }
    }

    pub fn from_json(j: &serde_json::Value) -> Option<UnitBean> {
        match j.get("kind")?.as_str()? {
            "single" => {
                let row = j.get("row")?;
                Some(UnitBean::Single(if row.is_null() {
                    None
                } else {
                    Some(row_from_json(row)?)
                }))
            }
            "rows" => Some(UnitBean::Rows {
                rows: j
                    .get("rows")?
                    .as_array()?
                    .iter()
                    .map(row_from_json)
                    .collect::<Option<Vec<_>>>()?,
                total: j.get("total")?.as_u64()? as usize,
            }),
            "nested" => Some(UnitBean::Nested(
                j.get("rows")?
                    .as_array()?
                    .iter()
                    .map(nested_from_json)
                    .collect::<Option<Vec<_>>>()?,
            )),
            "form" => Some(UnitBean::Form),
            "raw" => Some(UnitBean::Raw(j.get("html")?.as_str()?.to_string())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(oid: i64, title: &str) -> BeanRow {
        BeanRow {
            values: vec![
                ("oid".into(), Value::Integer(oid)),
                ("title".into(), Value::Text(title.into())),
            ],
        }
    }

    #[test]
    fn propagated_oid_rules() {
        assert_eq!(
            UnitBean::Single(Some(row(7, "x"))).propagated_oid(),
            Some(7)
        );
        assert_eq!(UnitBean::Single(None).propagated_oid(), None);
        assert_eq!(
            UnitBean::Rows {
                rows: vec![row(3, "a"), row(4, "b")],
                total: 2
            }
            .propagated_oid(),
            Some(3)
        );
        assert_eq!(UnitBean::Form.propagated_oid(), None);
    }

    #[test]
    fn propagated_attribute() {
        let b = UnitBean::Single(Some(row(1, "TODS")));
        assert_eq!(
            b.propagated_attribute("title"),
            Some(Value::Text("TODS".into()))
        );
        assert_eq!(b.propagated_attribute("missing"), None);
    }

    #[test]
    fn json_format_names_each_property_as_a_string() {
        let b = UnitBean::Rows {
            rows: vec![row(1, "a"), row(2, "b")],
            total: 2,
        };
        assert_eq!(
            b.to_json().to_string(),
            r#"{"kind":"rows","rows":[[["oid",{"t":"i","v":1}],["title",{"t":"s","v":"a"}]],[["oid",{"t":"i","v":2}],["title",{"t":"s","v":"b"}]]],"total":2}"#
        );
    }

    #[test]
    fn json_round_trip_all_kinds() {
        let beans = vec![
            UnitBean::Single(Some(row(1, "a"))),
            UnitBean::Single(None),
            UnitBean::Rows {
                rows: vec![row(1, "a"), row(2, "b")],
                total: 10,
            },
            UnitBean::Nested(vec![NestedBeanRow {
                row: row(1, "issue"),
                children: vec![NestedBeanRow {
                    row: row(2, "paper"),
                    children: vec![],
                }],
            }]),
            UnitBean::Form,
            UnitBean::Raw("<b>x</b>".into()),
        ];
        for b in beans {
            let j = b.to_json();
            let back = UnitBean::from_json(&j).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn json_round_trip_value_types() {
        let r = BeanRow {
            values: vec![
                ("n".into(), Value::Null),
                ("i".into(), Value::Integer(-5)),
                ("r".into(), Value::Real(2.5)),
                ("s".into(), Value::Text("héllo".into())),
                ("b".into(), Value::Boolean(true)),
                ("t".into(), Value::Timestamp(1_041_379_200_000)),
            ],
        };
        let b = UnitBean::Single(Some(r));
        let back = UnitBean::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
    }
}
