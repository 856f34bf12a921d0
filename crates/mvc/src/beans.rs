//! Unit beans — the Model-side state objects of §3.
//!
//! "A unit service is a Java class, which is responsible for computing the
//! unit's content and producing a collection of unit beans, which are
//! JavaBeans objects belonging to the Model, holding the content of each
//! unit."
//!
//! Beans carry typed values straight from the result set, positionally:
//! a row is one `Value` per property, and the property names live once in
//! the bean's shared [`Shape`]. The view's unit programs write the cells
//! straight into the page without touching the database. Beans also cross
//! the application-server boundary (Fig. 6), so they serialize to/from
//! JSON.

use relstore::Value;
use std::sync::Arc;

/// One row of bean properties: one value per property of its [`Shape`],
/// in shape order.
pub type BeanRow = Vec<Value>;

/// The property names of a bean's rows, in cell order, and the positions
/// every reader of a row needs: the row's `oid` and the displayed cells.
/// The unit service mints one shape per result set (one per level for a
/// hierarchy) from the query's bean declaration, and every row shares it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Shape {
    names: Box<[Box<str>]>,
    /// The first property named `oid` (any case).
    oid: Option<usize>,
    /// Every property not named `oid` (any case): what a row displays.
    shown: Box<[usize]>,
}

impl Shape {
    pub fn new<S: Into<Box<str>>>(names: impl IntoIterator<Item = S>) -> Shape {
        let names: Box<[Box<str>]> = names.into_iter().map(Into::into).collect();
        let is_oid = |n: &str| n.eq_ignore_ascii_case("oid");
        Shape {
            oid: names.iter().position(|n| is_oid(n)),
            shown: (0..names.len()).filter(|&i| !is_oid(&names[i])).collect(),
            names,
        }
    }

    pub fn names(&self) -> &[Box<str>] {
        &self.names
    }

    /// Position of the first property called `name` (any case).
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n.eq_ignore_ascii_case(name))
    }

    /// Positions of the displayed properties, in order.
    pub fn shown(&self) -> &[usize] {
        &self.shown
    }

    /// A row's `oid`, when the shape has one and the cell is an integer.
    pub fn oid(&self, row: &[Value]) -> Option<i64> {
        match row.get(self.oid?) {
            Some(Value::Integer(i)) => Some(*i),
            _ => None,
        }
    }

    /// A row's property by name (any case).
    pub fn get<'r>(&self, row: &'r [Value], name: &str) -> Option<&'r Value> {
        row.get(self.position(name)?)
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
    Single {
        shape: Arc<Shape>,
        row: Option<BeanRow>,
    },
    /// Index-family units: ordered rows; `total` is the full count for
    /// scroller paging.
    Rows {
        shape: Arc<Shape>,
        rows: Vec<BeanRow>,
        total: usize,
    },
    /// Hierarchical index: the rows at depth `d` have shape `shapes[d]`.
    Nested {
        shapes: Vec<Arc<Shape>>,
        rows: Vec<NestedBeanRow>,
    },
    /// Entry unit: no database content.
    Form,
    /// Plug-in unit output.
    Raw(String),
}

impl UnitBean {
    /// The instance this bean propagates along outgoing links, with its
    /// shape: the single instance, or the first row (automatic default
    /// selection).
    fn propagated(&self) -> Option<(&Shape, &[Value])> {
        match self {
            UnitBean::Single {
                shape,
                row: Some(r),
            } => Some((shape, r)),
            UnitBean::Rows { shape, rows, .. } => Some((shape, rows.first()?)),
            UnitBean::Nested { shapes, rows } => Some((shapes.first()?, &rows.first()?.row)),
            _ => None,
        }
    }

    /// The oid this bean propagates along outgoing links.
    pub fn propagated_oid(&self) -> Option<i64> {
        let (shape, row) = self.propagated()?;
        shape.oid(row)
    }

    /// An attribute of the propagated instance.
    pub fn propagated_attribute(&self, name: &str) -> Option<Value> {
        let (shape, row) = self.propagated()?;
        shape.get(row, name).cloned()
    }

    pub fn row_count(&self) -> usize {
        match self {
            UnitBean::Single { row, .. } => usize::from(row.is_some()),
            UnitBean::Rows { rows, .. } => rows.len(),
            UnitBean::Nested { rows, .. } => rows.len(),
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

fn row_to_json(shape: &Shape, r: &[Value]) -> serde_json::Value {
    serde_json::Value::Array(
        shape
            .names
            .iter()
            .zip(r)
            .map(|(n, v)| serde_json::json!([&**n, value_to_json(v)]))
            .collect(),
    )
}

/// Read one `[[name, value], …]` row. The first row read at a depth fixes
/// the shape of that depth in `shape`; a later row naming other
/// properties is malformed.
fn row_from_json(j: &serde_json::Value, shape: &mut Option<Arc<Shape>>) -> Option<BeanRow> {
    let arr = j.as_array()?;
    let mut names = Vec::with_capacity(arr.len());
    let mut values = Vec::with_capacity(arr.len());
    for pair in arr {
        let p = pair.as_array()?;
        names.push(p.first()?.as_str()?);
        values.push(value_from_json(p.get(1)?)?);
    }
    match shape {
        Some(s) if s.names.iter().map(|n| &**n).eq(names.iter().copied()) => {}
        Some(_) => return None,
        None => *shape = Some(Arc::new(Shape::new(names))),
    }
    Some(values)
}

fn nested_to_json(shapes: &[Arc<Shape>], r: &NestedBeanRow) -> serde_json::Value {
    let unshaped = Shape::default();
    let (shape, below) = match shapes.split_first() {
        Some((shape, below)) => (&**shape, below),
        None => (&unshaped, shapes),
    };
    serde_json::json!({
        "row": row_to_json(shape, &r.row),
        "children": r.children.iter().map(|c| nested_to_json(below, c)).collect::<Vec<_>>(),
    })
}

fn nested_from_json(
    j: &serde_json::Value,
    depth: usize,
    shapes: &mut Vec<Option<Arc<Shape>>>,
) -> Option<NestedBeanRow> {
    if shapes.len() <= depth {
        shapes.resize(depth + 1, None);
    }
    Some(NestedBeanRow {
        row: row_from_json(j.get("row")?, &mut shapes[depth])?,
        children: j
            .get("children")?
            .as_array()?
            .iter()
            .map(|c| nested_from_json(c, depth + 1, shapes))
            .collect::<Option<Vec<_>>>()?,
    })
}

impl UnitBean {
    /// Marshal for the application-server boundary. Every row names each
    /// of its properties; a bean without rows carries no shape.
    pub fn to_json(&self) -> serde_json::Value {
        match self {
            UnitBean::Single { shape, row } => serde_json::json!({
                "kind": "single",
                "row": row.as_ref().map(|r| row_to_json(shape, r)),
            }),
            UnitBean::Rows { shape, rows, total } => serde_json::json!({
                "kind": "rows",
                "rows": rows.iter().map(|r| row_to_json(shape, r)).collect::<Vec<_>>(),
                "total": total,
            }),
            UnitBean::Nested { shapes, rows } => serde_json::json!({
                "kind": "nested",
                "rows": rows.iter().map(|r| nested_to_json(shapes, r)).collect::<Vec<_>>(),
            }),
            UnitBean::Form => serde_json::json!({ "kind": "form" }),
            UnitBean::Raw(s) => serde_json::json!({ "kind": "raw", "html": s }),
        }
    }

    pub fn from_json(j: &serde_json::Value) -> Option<UnitBean> {
        let shaped = |s: Option<Arc<Shape>>| s.unwrap_or_default();
        match j.get("kind")?.as_str()? {
            "single" => {
                let row = j.get("row")?;
                let mut shape = None;
                let row = if row.is_null() {
                    None
                } else {
                    Some(row_from_json(row, &mut shape)?)
                };
                Some(UnitBean::Single {
                    shape: shaped(shape),
                    row,
                })
            }
            "rows" => {
                let mut shape = None;
                let rows = j
                    .get("rows")?
                    .as_array()?
                    .iter()
                    .map(|r| row_from_json(r, &mut shape))
                    .collect::<Option<Vec<_>>>()?;
                Some(UnitBean::Rows {
                    shape: shaped(shape),
                    rows,
                    total: j.get("total")?.as_u64()? as usize,
                })
            }
            "nested" => {
                let mut shapes = Vec::new();
                let rows = j
                    .get("rows")?
                    .as_array()?
                    .iter()
                    .map(|r| nested_from_json(r, 0, &mut shapes))
                    .collect::<Option<Vec<_>>>()?;
                Some(UnitBean::Nested {
                    shapes: shapes.into_iter().map(Option::unwrap_or_default).collect(),
                    rows,
                })
            }
            "form" => Some(UnitBean::Form),
            "raw" => Some(UnitBean::Raw(j.get("html")?.as_str()?.to_string())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Arc<Shape> {
        Arc::new(Shape::new(["oid", "title"]))
    }

    fn row(oid: i64, title: &str) -> BeanRow {
        vec![Value::Integer(oid), Value::Text(title.into())]
    }

    fn single(row: Option<BeanRow>) -> UnitBean {
        let shape = if row.is_some() {
            shape()
        } else {
            Arc::default()
        };
        UnitBean::Single { shape, row }
    }

    #[test]
    fn shape_resolves_oid_and_displayed_positions() {
        let s = Shape::new(["title", "OID", "Price", "oid"]);
        assert_eq!(s.position("oid"), Some(1));
        assert_eq!(s.position("price"), Some(2));
        assert_eq!(s.position("missing"), None);
        assert_eq!(s.shown(), &[0, 2]);
        let r = vec![
            Value::Text("t".into()),
            Value::Integer(9),
            Value::Real(1.5),
            Value::Integer(4),
        ];
        assert_eq!(s.oid(&r), Some(9));
        assert_eq!(s.get(&r, "PRICE"), Some(&Value::Real(1.5)));
        // a non-integer oid cell is no oid
        assert_eq!(s.oid(&[Value::Null, Value::Null]), None);
        assert_eq!(Shape::new(["title"]).oid(&r), None);
    }

    #[test]
    fn propagated_oid_rules() {
        assert_eq!(single(Some(row(7, "x"))).propagated_oid(), Some(7));
        assert_eq!(single(None).propagated_oid(), None);
        assert_eq!(
            UnitBean::Rows {
                shape: shape(),
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
        let b = single(Some(row(1, "TODS")));
        assert_eq!(
            b.propagated_attribute("title"),
            Some(Value::Text("TODS".into()))
        );
        assert_eq!(b.propagated_attribute("missing"), None);
    }

    #[test]
    fn json_format_names_each_property_as_a_string() {
        let b = UnitBean::Rows {
            shape: shape(),
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
            single(Some(row(1, "a"))),
            single(None),
            UnitBean::Rows {
                shape: shape(),
                rows: vec![row(1, "a"), row(2, "b")],
                total: 10,
            },
            UnitBean::Nested {
                shapes: vec![shape(), Arc::new(Shape::new(["oid", "name", "pages"]))],
                rows: vec![NestedBeanRow {
                    row: row(1, "issue"),
                    children: vec![NestedBeanRow {
                        row: vec![Value::Integer(2), Value::Text("paper".into()), Value::Null],
                        children: vec![],
                    }],
                }],
            },
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
    fn json_rows_of_differing_shapes_are_malformed() {
        let j = serde_json::from_str(
            r#"{"kind":"rows","rows":[[["oid",{"t":"i","v":1}]],[["name",{"t":"i","v":2}]]],"total":2}"#,
        )
        .unwrap();
        assert_eq!(UnitBean::from_json(&j), None);
    }

    #[test]
    fn json_round_trip_value_types() {
        let names = ["n", "i", "r", "s", "b", "t"];
        let r = vec![
            Value::Null,
            Value::Integer(-5),
            Value::Real(2.5),
            Value::Text("héllo".into()),
            Value::Boolean(true),
            Value::Timestamp(1_041_379_200_000),
        ];
        let b = UnitBean::Single {
            shape: Arc::new(Shape::new(names)),
            row: Some(r),
        };
        let back = UnitBean::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
    }
}
