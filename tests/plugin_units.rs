//! §7 plug-in units end to end: "we have added to WebRatio the notion of
//! 'plug-in units', i.e. of new components, which can be easily plugged
//! into the design and runtime environment ... Plug-in units are being
//! used for adding to WebRatio content and operation units interacting
//! with Web services and implementing workflow functionalities."
//!
//! We define a custom "weather" content unit and a custom "approve"
//! workflow operation, plug both into the runtime, and serve them.

use std::sync::Arc;
use webml_ratio::mvc::{
    MvcError, OpResult, OperationHandler, ParamMap, UnitBean, UnitService, WebRequest,
};
use webml_ratio::relstore::{Database, Params};
use webml_ratio::webml::{Audience, HypertextModel, LinkEnd, OperationKind, UnitKind};
use webml_ratio::webratio::{Application, DeployOptions};

/// A plug-in content unit simulating a Web-service call (§7's example of
/// "content units interacting with Web services").
struct WeatherUnit;

impl UnitService for WeatherUnit {
    fn compute(
        &self,
        _desc: &webml_ratio::descriptors::UnitDescriptor,
        params: &ParamMap,
        _db: &Database,
    ) -> Result<UnitBean, MvcError> {
        let city = params
            .get("city")
            .map(|v| v.render())
            .unwrap_or_else(|| "Como".to_string());
        Ok(UnitBean::Raw(format!(
            "<div class=\"weather\">Weather in {city}: 23°C, sunny</div>"
        )))
    }
}

/// A plug-in workflow operation (§7's "operation units ... implementing
/// workflow functionalities").
struct ApproveStep;

impl OperationHandler for ApproveStep {
    fn execute(
        &self,
        _desc: &webml_ratio::descriptors::OperationDescriptor,
        params: &ParamMap,
        db: &Database,
    ) -> Result<OpResult, MvcError> {
        let id = params
            .get("request_id")
            .cloned()
            .ok_or(MvcError::MissingParameter {
                unit: "approve".into(),
                param: "request_id".into(),
            })?;
        let n = db
            .execute(
                "UPDATE request SET state = 'approved' WHERE oid = :id",
                &Params::new().bind("id", id),
            )
            .map_err(|e| MvcError::Database(e.to_string()))?
            .affected();
        Ok(OpResult {
            ok: n == 1,
            outputs: ParamMap::new(),
            message: Some(if n == 1 { "approved" } else { "not found" }.into()),
        })
    }
}

fn build_app() -> Application {
    let mut er = webml_ratio::er::ErModel::new();
    let request = er
        .add_entity(
            "Request",
            vec![
                webml_ratio::er::Attribute::new("title", webml_ratio::er::AttrType::String),
                webml_ratio::er::Attribute::new("state", webml_ratio::er::AttrType::String),
            ],
        )
        .unwrap();
    let mut ht = HypertextModel::new();
    let sv = ht.add_site_view("Workflow", Audience::default());
    let home = ht.add_page(sv, None, "Dashboard");
    ht.set_home(sv, home);
    ht.add_index_unit(home, "Pending requests", request);
    // the plug-in content unit, declared in the model like any other unit
    ht.add_unit(
        home,
        "Local weather",
        UnitKind::PlugIn {
            type_name: "weather".into(),
        },
        None,
    );
    let approve = ht.add_operation(
        "ApproveRequest",
        OperationKind::Custom {
            type_name: "workflow-approve".into(),
        },
        vec!["request_id".into()],
    );
    ht.link_ok(approve, LinkEnd::Page(home));
    ht.link_ko(approve, LinkEnd::Page(home));
    Application::new("workflow", er, ht)
}

#[test]
fn plugin_unit_and_operation_serve_end_to_end() {
    let app = build_app();
    let mut options = DeployOptions::default();
    options.runtime.fragment_cache = true;
    options.runtime.fragment_ttl = std::time::Duration::from_secs(3600);
    let d = app
        .assemble(
            options,
            None,
            Some(&|parts| {
                parts
                    .services
                    .register("weather", "weather", Arc::new(WeatherUnit));
                parts
                    .ops
                    .register("workflow-approve", Arc::new(ApproveStep));
            }),
        )
        .unwrap();
    d.db.execute(
        "INSERT INTO request (title, state) VALUES ('Buy servers', 'pending')",
        &Params::new(),
    )
    .unwrap();

    // the plug-in unit renders inside the generated page
    let resp = d.handle(&WebRequest::get("/workflow/dashboard").with_param("city", "Milano"));
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("Weather in Milano"));
    assert!(resp.body.contains("Buy servers"));
    // a plug-in unit declares no inputs, so its cached fragment is keyed
    // on every parameter it could have read
    let resp = d.handle(&WebRequest::get("/workflow/dashboard").with_param("city", "Roma"));
    assert!(resp.body.contains("Weather in Roma"), "{}", resp.body);

    // the plug-in operation executes and forwards
    let op_url = d.generated.descriptors.operations[0].url.clone();
    let resp = d.handle(&WebRequest::get(&op_url).with_param("request_id", "1"));
    assert_eq!(resp.status, 200);
    let state =
        d.db.query("SELECT state FROM request WHERE oid = 1", &Params::new())
            .unwrap();
    assert_eq!(state.first("state").unwrap().render(), "approved");

    // unknown request id → KO path (still a 200 page via the KO forward)
    let resp = d.handle(&WebRequest::get(&op_url).with_param("request_id", "99"));
    assert_eq!(resp.status, 200);
}

#[test]
fn plugin_descriptor_uses_type_name() {
    let app = build_app();
    let g = app.generate().unwrap();
    let plug = g
        .descriptors
        .units
        .iter()
        .find(|u| u.unit_type == "weather")
        .expect("plug-in descriptor");
    assert!(plug.queries.is_empty());
    let op = &g.descriptors.operations[0];
    assert_eq!(op.op_type, "workflow-approve");
    assert!(op.sql.is_none());
}
