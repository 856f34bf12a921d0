//! Synthetic application generator — the Acer-Euro stand-in.
//!
//! §8 reports on a production application we cannot obtain: 22 site views,
//! 556 page templates, 3068 units, >3000 SQL queries. This module
//! synthesizes a model with exactly those headline dimensions (and any
//! scaled variant) so the artifact-count and performance experiments run
//! on the same shape of input. Generation is deterministic per seed.

use crate::app::Application;
use er::{AttrType, Attribute, Cardinality, EntityId, ErModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Database, Params, Value};
use webml::{
    Audience, CacheSpec, Condition, Field, HypertextModel, LayoutCategory, LinkEnd, LinkParam,
    OperationKind, PageId, UnitId,
};

/// Parameters of a synthetic application.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    pub name: String,
    pub site_views: usize,
    /// Total pages across all site views.
    pub pages: usize,
    /// Total content units across all pages.
    pub units: usize,
    pub entities: usize,
    pub operations: usize,
    /// Fraction of units tagged `cached` (§6).
    pub cached_fraction: f64,
    /// Protect non-B2C site views behind login (as Acer-Euro's 21 private
    /// site views were, §8). Off by default so workloads stay anonymous.
    pub protect_private_views: bool,
    pub seed: u64,
}

impl SynthSpec {
    /// The §8 Acer-Euro dimensions: 22 site views, 556 pages, 3068 units.
    pub fn acer_euro() -> SynthSpec {
        SynthSpec {
            name: "acer_euro".into(),
            site_views: 22,
            pages: 556,
            units: 3068,
            entities: 40,
            operations: 60,
            cached_fraction: 0.3,
            protect_private_views: false,
            seed: 2003,
        }
    }

    /// A scaled-down variant for fast tests/benches.
    pub fn scaled(pages: usize, units_per_page: usize) -> SynthSpec {
        SynthSpec {
            name: format!("synth_{pages}p"),
            site_views: (pages / 25).max(1),
            pages,
            units: pages * units_per_page,
            entities: (pages / 10).clamp(3, 40),
            operations: (pages / 10).max(1),
            cached_fraction: 0.3,
            protect_private_views: false,
            seed: 42,
        }
    }
}

/// Build the full application for a spec.
pub fn synthesize(spec: &SynthSpec) -> Application {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let er = synth_er(spec, &mut rng);
    let ht = synth_hypertext(spec, &er, &mut rng);
    Application::new(spec.name.clone(), er, ht)
}

fn synth_er(spec: &SynthSpec, rng: &mut StdRng) -> ErModel {
    let mut er = ErModel::new();
    let n = spec.entities.max(2);
    let mut ids = Vec::with_capacity(n);
    let attr_types = [
        AttrType::String,
        AttrType::Integer,
        AttrType::Float,
        AttrType::Boolean,
        AttrType::Date,
        AttrType::Text,
    ];
    for e in 0..n {
        let attr_count = rng.gen_range(3..=6);
        let mut attrs = vec![Attribute::new("name", AttrType::String).required()];
        for a in 1..attr_count {
            attrs.push(Attribute::new(
                format!("attr{a}"),
                attr_types[rng.gen_range(0..attr_types.len())],
            ));
        }
        ids.push(er.add_entity(format!("Entity{e}"), attrs).unwrap());
    }
    // a chain of one-to-many relationships (Entity_i 1:N Entity_{i+1})
    // guarantees every entity is navigable, plus a few bridges
    for i in 0..n - 1 {
        er.add_relationship(
            format!("Rel{i}"),
            ids[i],
            ids[i + 1],
            format!("E{i}ToE{}", i + 1),
            format!("E{}ToE{i}", i + 1),
            Cardinality::ZERO_ONE,
            Cardinality::ZERO_MANY,
        )
        .unwrap();
    }
    let bridges = (n / 5).max(1);
    for b in 0..bridges {
        let x = rng.gen_range(0..n);
        let mut y = rng.gen_range(0..n);
        if y == x {
            y = (y + 1) % n;
        }
        er.add_relationship(
            format!("Bridge{b}"),
            ids[x],
            ids[y],
            format!("B{b}Fwd"),
            format!("B{b}Inv"),
            Cardinality::ZERO_MANY,
            Cardinality::ZERO_MANY,
        )
        .unwrap();
    }
    er
}

fn entity_of_page(p: usize, entities: usize) -> usize {
    p % entities.max(1)
}

fn synth_hypertext(spec: &SynthSpec, er: &ErModel, rng: &mut StdRng) -> HypertextModel {
    let mut ht = HypertextModel::new();
    let n_entities = er.entity_count();
    let entity_ids: Vec<EntityId> = er.entities().map(|(id, _)| id).collect();

    // distribute pages across site views as evenly as possible
    let sv_count = spec.site_views.max(1);
    let base = spec.pages / sv_count;
    let extra = spec.pages % sv_count;
    // distribute units across pages
    let unit_base = spec.units / spec.pages.max(1);
    let unit_extra = spec.units % spec.pages.max(1);

    let mut pages: Vec<PageId> = Vec::with_capacity(spec.pages);
    let mut page_index_units: Vec<UnitId> = Vec::with_capacity(spec.pages);
    let mut page_counter = 0usize;

    for sv_i in 0..sv_count {
        let audience = Audience {
            group: if sv_i % 3 == 0 {
                "customers".into()
            } else if sv_i % 3 == 1 {
                "product-managers".into()
            } else {
                "marketing".into()
            },
            device: "desktop".into(),
        };
        let sv = ht.add_site_view(format!("SiteView{sv_i}"), audience);
        if spec.protect_private_views && sv_i % 3 != 0 {
            ht.protect_site_view(sv);
        }
        let area = ht.add_area(sv, None, format!("Area{sv_i}"));
        let n_pages = base + usize::from(sv_i < extra);
        let mut sv_pages: Vec<PageId> = Vec::with_capacity(n_pages);
        for p in 0..n_pages {
            let in_area = p % 2 == 1;
            let page = ht.add_page(sv, in_area.then_some(area), format!("Page{sv_i}_{p}"));
            ht.set_layout(
                page,
                match page_counter % 4 {
                    0 => LayoutCategory::SingleColumn,
                    1 => LayoutCategory::TwoColumns,
                    2 => LayoutCategory::ThreeColumns,
                    _ => LayoutCategory::MultiFrame,
                },
            );
            let n_units = unit_base + usize::from(page_counter < unit_extra);
            let primary_entity = entity_ids[entity_of_page(page_counter, n_entities)];

            // unit 0: an index over the page's primary entity
            let index = ht.add_index_unit(page, format!("Index{page_counter}"), primary_entity);
            ht.add_sort(index, "name", true);
            page_index_units.push(index);
            let mut made = 1;
            // start the kind cycle at a page-dependent offset so every
            // unit kind appears across the application
            let mut k = page_counter;
            while made < n_units {
                let unit = match k % 7 {
                    // a data unit fed by an automatic link from the index
                    0 => {
                        let u = ht.add_data_unit(
                            page,
                            format!("Data{page_counter}_{k}"),
                            primary_entity,
                        );
                        ht.add_condition(
                            u,
                            Condition::KeyEq {
                                param: format!("sel{page_counter}_{k}"),
                            },
                        );
                        ht.add_link(webml::Link {
                            kind: webml::LinkKind::Automatic,
                            source: LinkEnd::Unit(index),
                            target: LinkEnd::Unit(u),
                            parameters: vec![LinkParam::oid(format!("sel{page_counter}_{k}"))],
                            label: None,
                        });
                        u
                    }
                    // a role-navigated index over the next entity in the chain
                    1 => {
                        let eidx = entity_of_page(page_counter, n_entities);
                        if eidx + 1 < n_entities {
                            let u = ht.add_index_unit(
                                page,
                                format!("Related{page_counter}_{k}"),
                                entity_ids[eidx + 1],
                            );
                            ht.add_condition(
                                u,
                                Condition::Role {
                                    role: format!("E{eidx}ToE{}", eidx + 1),
                                    param: format!("rel{page_counter}_{k}"),
                                },
                            );
                            ht.add_link(webml::Link {
                                kind: webml::LinkKind::Automatic,
                                source: LinkEnd::Unit(index),
                                target: LinkEnd::Unit(u),
                                parameters: vec![LinkParam::oid(format!("rel{page_counter}_{k}"))],
                                label: None,
                            });
                            u
                        } else {
                            ht.add_multidata_unit(
                                page,
                                format!("Multi{page_counter}_{k}"),
                                primary_entity,
                            )
                        }
                    }
                    2 => ht.add_multidata_unit(
                        page,
                        format!("Multi{page_counter}_{k}"),
                        primary_entity,
                    ),
                    // a hierarchical index over the relationship chain
                    6 => {
                        let eidx = entity_of_page(page_counter, n_entities);
                        if eidx + 1 < n_entities {
                            let mut levels = vec![webml::HierarchyLevel {
                                entity: entity_ids[eidx + 1],
                                role: format!("E{eidx}ToE{}", eidx + 1),
                                display_attributes: vec!["name".into()],
                                sort: vec![],
                            }];
                            if eidx + 2 < n_entities {
                                levels.push(webml::HierarchyLevel {
                                    entity: entity_ids[eidx + 2],
                                    role: format!("E{}ToE{}", eidx + 1, eidx + 2),
                                    display_attributes: vec!["name".into()],
                                    sort: vec![],
                                });
                            }
                            let u = ht.add_hierarchical_index(
                                page,
                                format!("Tree{page_counter}_{k}"),
                                levels,
                            );
                            ht.add_link(webml::Link {
                                kind: webml::LinkKind::Automatic,
                                source: LinkEnd::Unit(index),
                                target: LinkEnd::Unit(u),
                                parameters: vec![LinkParam::oid(format!("tree{page_counter}_{k}"))],
                                label: None,
                            });
                            u
                        } else {
                            ht.add_multidata_unit(
                                page,
                                format!("Multi{page_counter}_{k}"),
                                primary_entity,
                            )
                        }
                    }
                    3 => ht.add_scroller_unit(
                        page,
                        format!("Scroll{page_counter}_{k}"),
                        primary_entity,
                        10,
                    ),
                    4 => ht.add_entry_unit(
                        page,
                        format!("Entry{page_counter}_{k}"),
                        vec![Field::new("keyword", AttrType::String)],
                    ),
                    _ => ht.add_multichoice_unit(
                        page,
                        format!("Choice{page_counter}_{k}"),
                        primary_entity,
                    ),
                };
                if rng.gen_bool(spec.cached_fraction) {
                    ht.set_cache(unit, CacheSpec::model_driven());
                }
                made += 1;
                k += 1;
            }
            sv_pages.push(page);
            pages.push(page);
            page_counter += 1;
        }
        // intra-site-view navigation: home is the first page; each page's
        // index links to the next page's first data-capable unit (here:
        // the next page itself)
        if let Some(&home) = sv_pages.first() {
            ht.set_home(sv, home);
            ht.set_landmark(home);
        }
        for w in sv_pages.windows(2) {
            let (a, b) = (w[0], w[1]);
            let a_index = ht.page(a).units[0];
            ht.link_contextual(LinkEnd::Unit(a_index), LinkEnd::Page(b), "next", vec![]);
        }
        // every non-home page links back to the site-view home — homes are
        // link-popular, which experiment E6 exploits
        if let Some(&home) = sv_pages.first() {
            for &p in &sv_pages[1..] {
                let idx = ht.page(p).units[0];
                ht.link_contextual(LinkEnd::Unit(idx), LinkEnd::Page(home), "home", vec![]);
            }
        }
    }

    // operations, round-robin over kinds and entities
    for o in 0..spec.operations {
        let entity = entity_ids[o % n_entities];
        let target = pages[o % pages.len()];
        let (kind, inputs) = match o % 5 {
            0 => (OperationKind::Create { entity }, vec!["name".to_string()]),
            1 => (OperationKind::Delete { entity }, vec!["oid".to_string()]),
            2 => (
                OperationKind::Modify { entity },
                vec!["oid".to_string(), "name".to_string()],
            ),
            3 => {
                let r = o % (n_entities - 1);
                (
                    OperationKind::Connect {
                        role: format!("E{r}ToE{}", r + 1),
                    },
                    vec![],
                )
            }
            _ => (
                OperationKind::Login,
                vec!["username".into(), "password".into()],
            ),
        };
        let op = ht.add_operation(format!("Op{o}"), kind, inputs);
        ht.link_ok(op, LinkEnd::Page(target));
        ht.link_ko(op, LinkEnd::Page(target));
    }
    ht
}

/// Populate every entity table with `rows_per_entity` rows (FKs wired to
/// existing parents), deterministically per seed.
pub fn seed_data(app: &Application, db: &Database, rows_per_entity: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // insert in chain order so FK targets exist (entity tables are
    // chain-ordered by construction; bridge tables come after)
    for (eid, entity) in app.er.entities() {
        let table = app.mapping.table_for(eid).unwrap();
        let schema = app.mapping.schema_for(eid).unwrap().clone();
        for r in 0..rows_per_entity {
            let mut cols = Vec::new();
            let mut placeholders = Vec::new();
            let mut params = Params::new();
            for col in &schema.columns {
                if col.name == "oid" {
                    continue;
                }
                let pname = format!("p{}", cols.len());
                let value = if col.name.ends_with("_oid") {
                    if rows_per_entity == 0 {
                        Value::Null
                    } else {
                        Value::Integer(rng.gen_range(1..=rows_per_entity as i64))
                    }
                } else {
                    match col.data_type {
                        relstore::DataType::Integer => Value::Integer(rng.gen_range(0..1000)),
                        relstore::DataType::Real => {
                            Value::Real((rng.gen_range(0..100_000i64) as f64) / 100.0)
                        }
                        relstore::DataType::Boolean => Value::Boolean(rng.gen_bool(0.5)),
                        relstore::DataType::Timestamp => {
                            Value::Timestamp(1_000_000_000_000 + rng.gen_range(0..1_000_000_000i64))
                        }
                        _ => Value::Text(format!("{} {} {}", entity.name, col.name, r).into()),
                    }
                };
                params.set(pname.clone(), value);
                placeholders.push(format!(":{pname}"));
                cols.push(col.name.clone());
            }
            let sql = format!(
                "INSERT INTO {table} ({}) VALUES ({})",
                cols.join(", "),
                placeholders.join(", ")
            );
            db.execute(&sql, &params).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc::{RuntimeOptions, WebRequest};

    #[test]
    fn scaled_spec_hits_exact_dimensions() {
        let spec = SynthSpec::scaled(40, 5);
        let app = synthesize(&spec);
        let stats = app.hypertext.stats();
        assert_eq!(stats.pages, 40);
        assert_eq!(stats.units, 200);
        assert_eq!(stats.operations, spec.operations);
    }

    #[test]
    fn acer_euro_spec_matches_section_8() {
        let spec = SynthSpec::acer_euro();
        assert_eq!(spec.site_views, 22);
        assert_eq!(spec.pages, 556);
        assert_eq!(spec.units, 3068);
    }

    #[test]
    fn synthetic_models_validate() {
        let app = synthesize(&SynthSpec::scaled(30, 6));
        let errors: Vec<_> = app
            .validate()
            .into_iter()
            .filter(|i| i.severity == webml::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn generated_descriptors_are_deterministic() {
        let a = synthesize(&SynthSpec::scaled(20, 4));
        let b = synthesize(&SynthSpec::scaled(20, 4));
        let ga = a.generate().unwrap();
        let gb = b.generate().unwrap();
        assert_eq!(ga.descriptors, gb.descriptors);
    }

    #[test]
    fn synthetic_app_deploys_and_serves() {
        let app = synthesize(&SynthSpec::scaled(12, 4));
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        seed_data(&app, &d.db, 5, 7);
        // every generated page answers 200
        let mut served = 0;
        for p in &d.generated.descriptors.pages {
            let resp = d.handle(&WebRequest::get(&p.url));
            assert_eq!(resp.status, 200, "{}: {}", p.url, resp.body);
            served += 1;
        }
        assert_eq!(served, 12);
    }

    #[test]
    fn seed_data_respects_fks() {
        let app = synthesize(&SynthSpec::scaled(10, 3));
        let d = app.deploy(RuntimeOptions::default()).unwrap();
        seed_data(&app, &d.db, 8, 1);
        for (eid, _) in app.er.entities() {
            let t = app.mapping.table_for(eid).unwrap();
            assert_eq!(d.db.table_len(t).unwrap(), 8);
        }
    }
}
