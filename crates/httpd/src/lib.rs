//! # httpd — a minimal HTTP/1.1 server and client substrate
//!
//! Plays the "HTTP server" box of the paper's Fig. 3: accepts browser
//! requests and hands them to the servlet-container analogue (the `mvc`
//! Controller, adapted by the `webratio` facade). Each worker thread is
//! an epoll event loop that serves the connections it accepted from
//! accept to close (zero wakeups between requests, event-driven
//! deadlines — no polling ticks, no hand-off between threads);
//! persistent HTTP/1.1 connections (keep-alive negotiated per request,
//! per-connection request cap, idle read timeout), admission control
//! (503 + `Retry-After` beyond an in-flight budget), bounded header
//! blocks and bodies, and vectored zero-copy response writes.

pub mod client;
pub mod http;
pub mod server;

pub use http::{
    parse_query, percent_decode, BodyChunk, HttpRequest, HttpResponse, ParseOutcome, RequestError,
    MAX_HEADER_BYTES,
};
pub use server::{Handler, HttpServer, ServerConfig, Service, TracedHandler};
