//! The generic operation service.
//!
//! §3: operations "execute some processing and then display a result page"
//! and map to "an operation service in the business layer, and an action
//! mapping in the Controller's configuration file". One generic service
//! interprets every [`OperationDescriptor`]; login/logout/sendmail are the
//! built-in non-DML operations the paper names, and user-defined operation
//! handlers plug in by type name (§7).

use crate::error::{MvcError, Result};
use crate::services::ParamMap;
use crate::session::SessionManager;
use descriptors::OperationDescriptor;
use parking_lot::Mutex;
use relstore::{Database, Params, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of executing an operation.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    pub ok: bool,
    /// Output parameters forwarded to the next action (e.g. the oid of a
    /// freshly created instance).
    pub outputs: ParamMap,
    pub message: Option<String>,
}

impl OpResult {
    fn ok_with(outputs: ParamMap) -> OpResult {
        OpResult {
            ok: true,
            outputs,
            message: None,
        }
    }

    fn ko(message: impl Into<String>) -> OpResult {
        OpResult {
            ok: false,
            outputs: ParamMap::new(),
            message: Some(message.into()),
        }
    }
}

/// A mail "sent" by a sendmail operation (recorded, not transmitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mail {
    pub to: String,
    pub subject: String,
    pub body: String,
}

/// User-defined operation handler (§7 plug-in operations).
pub trait OperationHandler: Send + Sync {
    fn execute(
        &self,
        desc: &OperationDescriptor,
        params: &ParamMap,
        db: &Database,
    ) -> Result<OpResult>;
}

/// Executes operation descriptors.
#[derive(Default)]
pub struct OperationEngine {
    /// Recorded outbound mail (so tests/examples can assert on it).
    pub outbox: Mutex<Vec<Mail>>,
    custom: HashMap<String, Arc<dyn OperationHandler>>,
    /// Name of the table holding login credentials.
    user_table: String,
}

impl OperationEngine {
    pub fn new() -> OperationEngine {
        OperationEngine {
            outbox: Mutex::new(Vec::new()),
            custom: HashMap::new(),
            user_table: "webuser".into(),
        }
    }

    /// Register a handler for a plug-in operation type.
    pub fn register(&mut self, op_type: impl Into<String>, handler: Arc<dyn OperationHandler>) {
        self.custom.insert(op_type.into(), handler);
    }

    /// Set the table consulted by login operations (default `webuser`;
    /// expected columns: `oid, username, password, groupname`).
    pub fn set_user_table(&mut self, table: impl Into<String>) {
        self.user_table = table.into();
    }

    /// Bind the declared inputs of an operation.
    fn bind(&self, desc: &OperationDescriptor, params: &ParamMap) -> Result<Params> {
        let mut out = Params::new();
        for input in &desc.inputs {
            match params.get(input) {
                Some(v) => out.set(input.clone(), v.clone()),
                None => {
                    return Err(MvcError::MissingParameter {
                        unit: desc.id.clone(),
                        param: input.clone(),
                    })
                }
            }
        }
        // DML statements may use :oid / :source / :target beyond the
        // declared inputs
        for extra in ["oid", "source", "target"] {
            if let Some(v) = params.get(extra) {
                out.set(extra, v.clone());
            }
        }
        Ok(out)
    }

    /// [`OperationEngine::execute`] wrapped in an `op:<id>` span; a KO
    /// outcome additionally closes a zero-length `ko` child span so failure
    /// flows are visible in the trace (and countable by the controller).
    #[allow(clippy::too_many_arguments)]
    pub fn execute_traced(
        &self,
        desc: &OperationDescriptor,
        params: &ParamMap,
        db: &Database,
        sessions: &SessionManager,
        session_id: &str,
        ctx: &mut obs::RequestContext,
    ) -> Result<OpResult> {
        let token = ctx.enter(format!("op:{}", desc.id));
        let r = self.execute(desc, params, db, sessions, session_id);
        if let Ok(res) = &r {
            if !res.ok {
                let ko = ctx.enter("ko");
                ctx.exit(ko);
            }
        }
        ctx.exit(token);
        r
    }

    /// Execute an operation. DML failures produce a KO outcome (not an
    /// `Err`): §2 notes the control logic must decide "to which page
    /// redirect the user in case of operation failure".
    pub fn execute(
        &self,
        desc: &OperationDescriptor,
        params: &ParamMap,
        db: &Database,
        sessions: &SessionManager,
        session_id: &str,
    ) -> Result<OpResult> {
        match desc.op_type.as_str() {
            "create" => {
                let bound = self.bind(desc, params)?;
                let sql = desc
                    .sql
                    .as_deref()
                    .ok_or_else(|| MvcError::MissingDescriptor(format!("{}: sql", desc.id)))?;
                match db.execute(sql, &bound) {
                    Ok(r) => {
                        // expose the oid this insert minted to the forward
                        // target — not the table's newest, which a
                        // concurrent create may own
                        let mut outputs = ParamMap::new();
                        if let Some(oid) = r.inserted_key() {
                            outputs.insert("oid".into(), Value::Integer(oid));
                        }
                        Ok(OpResult::ok_with(outputs))
                    }
                    Err(e) => Ok(OpResult::ko(e.to_string())),
                }
            }
            "delete" | "modify" | "connect" | "disconnect" => {
                let bound = self.bind(desc, params)?;
                let sql = desc
                    .sql
                    .as_deref()
                    .ok_or_else(|| MvcError::MissingDescriptor(format!("{}: sql", desc.id)))?;
                match db.execute(sql, &bound) {
                    Ok(r) => {
                        let n = r.affected();
                        if n == 0 && desc.op_type != "connect" {
                            // nothing matched: treat as failure so the KO
                            // link fires
                            return Ok(OpResult::ko("no rows affected"));
                        }
                        Ok(OpResult::ok_with(ParamMap::new()))
                    }
                    Err(e) => Ok(OpResult::ko(e.to_string())),
                }
            }
            "login" => {
                let (Some(u), Some(p)) = (params.get("username"), params.get("password")) else {
                    return Ok(OpResult::ko("missing credentials"));
                };
                let sql = format!(
                    "SELECT oid, groupname FROM {} WHERE username = :u AND password = :p",
                    self.user_table
                );
                let rs = match db.query(
                    &sql,
                    &Params::new()
                        .bind("u", Value::Text(u.render().into()))
                        .bind("p", Value::Text(p.render().into())),
                ) {
                    Ok(rs) => rs,
                    Err(e) => return Ok(OpResult::ko(e.to_string())),
                };
                match rs.first("oid") {
                    Some(Value::Integer(oid)) => {
                        if let Some(session) = sessions.get(session_id) {
                            let mut s = session.lock();
                            s.user = Some(*oid);
                            s.group = rs.first("groupname").map(|g| g.render());
                            s.vars.insert("user".into(), Value::Integer(*oid));
                        }
                        let mut outputs = ParamMap::new();
                        outputs.insert("user".into(), Value::Integer(*oid));
                        Ok(OpResult::ok_with(outputs))
                    }
                    _ => Ok(OpResult::ko("invalid credentials")),
                }
            }
            "logout" => {
                sessions.destroy(session_id);
                Ok(OpResult::ok_with(ParamMap::new()))
            }
            "sendmail" => {
                let get = |k: &str| params.get(k).map(|v| v.render()).unwrap_or_default();
                self.outbox.lock().push(Mail {
                    to: get("to"),
                    subject: get("subject"),
                    body: get("body"),
                });
                Ok(OpResult::ok_with(ParamMap::new()))
            }
            custom => match self.custom.get(custom) {
                Some(h) => h.execute(desc, params, db),
                None => Err(MvcError::NoService(format!("operation type {custom}"))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE product (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, price REAL);
             CREATE TABLE webuser (oid INTEGER PRIMARY KEY AUTOINCREMENT, username TEXT, password TEXT, groupname TEXT);",
        )
        .unwrap();
        db.execute(
            "INSERT INTO webuser (username, password, groupname) VALUES ('anna', 'secret', 'managers')",
            &Params::new(),
        )
        .unwrap();
        db
    }

    fn create_desc() -> OperationDescriptor {
        OperationDescriptor {
            id: "op0".into(),
            name: "CreateProduct".into(),
            op_type: "create".into(),
            url: "/op/op0".into(),
            entity_table: Some("product".into()),
            role: None,
            inputs: vec!["name".into(), "price".into()],
            sql: Some("INSERT INTO product (name, price) VALUES (:name, :price)".into()),
            ok_forward: Some("/sv/list".into()),
            ko_forward: Some("/sv/error".into()),
            invalidates: vec!["product".into()],
            service: "GenericOperationService".into(),
        }
    }

    fn params(pairs: &[(&str, Value)]) -> ParamMap {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn create_outputs_new_oid() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let r = engine
            .execute(
                &create_desc(),
                &params(&[
                    ("name", Value::Text("Laptop".into())),
                    ("price", Value::Real(999.0)),
                ]),
                &db,
                &sessions,
                &sid,
            )
            .unwrap();
        assert!(r.ok);
        assert_eq!(r.outputs.get("oid"), Some(&Value::Integer(1)));
        assert_eq!(db.table_len("product").unwrap(), 1);
    }

    /// Two clients creating in one table at once: each forward names the
    /// row its own create inserted, never the other client's.
    #[test]
    fn concurrent_creates_forward_to_their_own_rows() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for client in 0..2 {
                let (db, engine, sessions, sid, start) = (&db, &engine, &sessions, &sid, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..1000 {
                        let name = format!("client {client} item {i}");
                        let create = params(&[
                            ("name", Value::Text(name.as_str().into())),
                            ("price", Value::Real(1.0)),
                        ]);
                        let r = engine
                            .execute(&create_desc(), &create, db, sessions, sid)
                            .unwrap();
                        let oid = r.outputs.get("oid").cloned().expect("forwarded oid");
                        let row = db
                            .query(
                                "SELECT name FROM product WHERE oid = :oid",
                                &Params::new().bind("oid", oid.clone()),
                            )
                            .unwrap();
                        assert_eq!(
                            row.first("name"),
                            Some(&Value::Text(name.as_str().into())),
                            "{name} forwarded to oid {oid:?}"
                        );
                    }
                });
            }
        });
        assert_eq!(db.table_len("product").unwrap(), 2000);
    }

    #[test]
    fn create_constraint_violation_is_ko_not_err() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let r = engine
            .execute(
                &create_desc(),
                &params(&[("name", Value::Null), ("price", Value::Real(1.0))]),
                &db,
                &sessions,
                &sid,
            )
            .unwrap();
        assert!(!r.ok);
        assert!(r.message.unwrap().contains("null violation"));
    }

    #[test]
    fn missing_input_is_err() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let err = engine
            .execute(&create_desc(), &ParamMap::new(), &db, &sessions, &sid)
            .unwrap_err();
        assert!(matches!(err, MvcError::MissingParameter { .. }));
    }

    #[test]
    fn delete_of_missing_row_is_ko() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let desc = OperationDescriptor {
            id: "op1".into(),
            name: "DeleteProduct".into(),
            op_type: "delete".into(),
            url: "/op/op1".into(),
            entity_table: Some("product".into()),
            role: None,
            inputs: vec!["oid".into()],
            sql: Some("DELETE FROM product WHERE oid = :oid".into()),
            ok_forward: None,
            ko_forward: None,
            invalidates: vec!["product".into()],
            service: String::new(),
        };
        let r = engine
            .execute(
                &desc,
                &params(&[("oid", Value::Integer(99))]),
                &db,
                &sessions,
                &sid,
            )
            .unwrap();
        assert!(!r.ok);
    }

    #[test]
    fn login_sets_session_principal() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let desc = OperationDescriptor {
            id: "op2".into(),
            name: "Login".into(),
            op_type: "login".into(),
            url: "/op/op2".into(),
            entity_table: None,
            role: None,
            inputs: vec!["username".into(), "password".into()],
            sql: None,
            ok_forward: None,
            ko_forward: None,
            invalidates: vec![],
            service: String::new(),
        };
        let r = engine
            .execute(
                &desc,
                &params(&[
                    ("username", Value::Text("anna".into())),
                    ("password", Value::Text("secret".into())),
                ]),
                &db,
                &sessions,
                &sid,
            )
            .unwrap();
        assert!(r.ok);
        let s = sessions.get(&sid).unwrap();
        assert_eq!(s.lock().user, Some(1));
        assert_eq!(s.lock().group.as_deref(), Some("managers"));
        // wrong password → KO
        let r = engine
            .execute(
                &desc,
                &params(&[
                    ("username", Value::Text("anna".into())),
                    ("password", Value::Text("wrong".into())),
                ]),
                &db,
                &sessions,
                &sid,
            )
            .unwrap();
        assert!(!r.ok);
    }

    #[test]
    fn logout_destroys_session() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let desc = OperationDescriptor {
            id: "op3".into(),
            name: "Logout".into(),
            op_type: "logout".into(),
            url: "/op/op3".into(),
            entity_table: None,
            role: None,
            inputs: vec![],
            sql: None,
            ok_forward: None,
            ko_forward: None,
            invalidates: vec![],
            service: String::new(),
        };
        engine
            .execute(&desc, &ParamMap::new(), &db, &sessions, &sid)
            .unwrap();
        assert!(sessions.get(&sid).is_none());
    }

    #[test]
    fn sendmail_records_to_outbox() {
        let db = db();
        let engine = OperationEngine::new();
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let desc = OperationDescriptor {
            id: "op4".into(),
            name: "Notify".into(),
            op_type: "sendmail".into(),
            url: "/op/op4".into(),
            entity_table: None,
            role: None,
            inputs: vec![],
            sql: None,
            ok_forward: None,
            ko_forward: None,
            invalidates: vec![],
            service: String::new(),
        };
        engine
            .execute(
                &desc,
                &params(&[
                    ("to", Value::Text("user@example.org".into())),
                    ("subject", Value::Text("hi".into())),
                ]),
                &db,
                &sessions,
                &sid,
            )
            .unwrap();
        let outbox = engine.outbox.lock();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].to, "user@example.org");
    }

    #[test]
    fn custom_handler_dispatch() {
        struct Approve;
        impl OperationHandler for Approve {
            fn execute(
                &self,
                _: &OperationDescriptor,
                _: &ParamMap,
                _: &Database,
            ) -> Result<OpResult> {
                Ok(OpResult {
                    ok: true,
                    outputs: ParamMap::new(),
                    message: Some("approved".into()),
                })
            }
        }
        let db = db();
        let mut engine = OperationEngine::new();
        engine.register("workflow-approve", Arc::new(Approve));
        let sessions = SessionManager::new();
        let sid = sessions.create();
        let desc = OperationDescriptor {
            id: "op5".into(),
            name: "Approve".into(),
            op_type: "workflow-approve".into(),
            url: "/op/op5".into(),
            entity_table: None,
            role: None,
            inputs: vec![],
            sql: None,
            ok_forward: None,
            ko_forward: None,
            invalidates: vec![],
            service: String::new(),
        };
        let r = engine
            .execute(&desc, &ParamMap::new(), &db, &sessions, &sid)
            .unwrap();
        assert_eq!(r.message.as_deref(), Some("approved"));
        // unregistered type → NoService
        let mut desc2 = desc.clone();
        desc2.op_type = "unknown-type".into();
        assert!(matches!(
            engine.execute(&desc2, &ParamMap::new(), &db, &sessions, &sid),
            Err(MvcError::NoService(_))
        ));
    }
}
