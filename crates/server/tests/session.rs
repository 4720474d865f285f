//! The session dispatcher without a socket, as the REPL drives it: one
//! script covers every verb that used to have a REPL-only twin, and
//! every reply is the [`Response`] a client would have decoded.

use starmagic::Engine;
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_common::{Error, Result};
use starmagic_metrics::Registry;
use starmagic_server::protocol::VERBS;
use starmagic_server::{Flow, Response, ServerConfig, Session, SharedEngine};

const VIEW: &str = "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
                    SELECT e.empno, e.empname, e.workdept, e.salary \
                    FROM employee e, department d WHERE e.empno = d.mgrno";

const OVER_VIEW: &str = "SELECT d.deptname, s.salary FROM department d, mgrSal s \
                         WHERE d.deptno = s.workdept AND d.deptname = 'Planning'";

fn session() -> Session {
    let cfg = ServerConfig {
        metrics: Registry::enabled(),
        ..ServerConfig::default()
    };
    let mut engine = Engine::new(benchmark_catalog(Scale::small()).expect("catalog"));
    engine.set_metrics(cfg.metrics.clone());
    Session::new(SharedEngine::new(engine), &cfg)
}

/// Dispatch a line that must keep the session open.
fn run(session: &mut Session, line: &str) -> Result<Response> {
    let (reply, flow) = session.dispatch(line);
    assert_eq!(flow, Flow::Continue, "{line}");
    reply
}

fn text(session: &mut Session, line: &str) -> String {
    match run(session, line) {
        Ok(Response::Text(t)) => t,
        other => panic!("{line}: expected a text frame, got {other:?}"),
    }
}

#[test]
fn one_script_covers_every_former_meta_command() {
    let mut s = session();

    let catalog = text(&mut s, "CATALOG");
    assert!(catalog.starts_with("tables:\n"), "{catalog}");
    assert!(catalog.contains("  employee ("), "{catalog}");
    assert!(catalog.contains("views:\n"), "{catalog}");

    let help = text(&mut s, "help");
    for verb in VERBS {
        assert!(help.contains(verb), "HELP lacks {verb:?}");
    }

    assert_eq!(
        run(&mut s, "SET STRATEGY magic"),
        Ok(Response::Ok { info: Vec::new() })
    );
    let created = run(&mut s, &format!("QUERY {VIEW}")).expect("CREATE VIEW");
    assert_eq!(created.info("rows"), Some("0"));
    assert_eq!(created.info("epoch"), Some("1"));
    assert!(text(&mut s, "CATALOG").contains("views:\n  mgrsal"));

    match run(&mut s, &format!("QUERY {OVER_VIEW}")) {
        Ok(Response::Rows {
            columns,
            rows,
            cache_hit,
            used_magic,
            epoch,
        }) => {
            assert_eq!(columns.len(), 2);
            assert!(!rows.is_empty());
            assert!(!cache_hit, "first run of the query");
            assert!(used_magic, "SET STRATEGY magic holds for the session");
            assert_eq!(epoch, 1);
        }
        other => panic!("expected rows, got {other:?}"),
    }

    let explain = text(&mut s, &format!("EXPLAIN {OVER_VIEW}"));
    assert!(explain.contains("== lint (chosen plan)"), "{explain}");
    assert!(explain.contains("== analysis (chosen plan)"), "{explain}");
    assert!(explain.contains("== decision:"), "{explain}");

    let analyze = text(&mut s, &format!("ANALYZE {OVER_VIEW}"));
    assert!(analyze.contains("totals: work"), "{analyze}");

    let cache = text(&mut s, "CACHE clear");
    assert!(cache.contains("== plan cache"), "{cache}");
    assert!(
        cache
            .lines()
            .any(|l| l.split_whitespace().eq(["entries", "0"])),
        "CACHE CLEAR empties the cache: {cache}"
    );

    let metrics = text(&mut s, "METRICS JSON");
    let doc = starmagic_trace::json::parse(metrics.trim()).expect("METRICS JSON parses");
    assert!(doc
        .get("counters")
        .is_some_and(|c| c.get("server.cmd.query").is_some()));

    let (reply, flow) = s.dispatch("QUIT");
    assert_eq!(reply, Ok(Response::Ok { info: Vec::new() }));
    assert_eq!(flow, Flow::Close);
}

#[test]
fn every_listed_verb_dispatches_and_nothing_else_does() {
    let mut s = session();
    for synopsis in VERBS {
        let verb = synopsis.split(' ').next().expect("a verb");
        let (reply, _) = s.dispatch(verb);
        assert!(
            !matches!(&reply, Err(Error::Unsupported(m)) if m.starts_with("unknown command")),
            "HELP lists {verb}, but the dispatcher does not know it"
        );
    }
    let mut s = session();
    assert!(matches!(
        run(&mut s, "\\tables"),
        Err(Error::Unsupported(m)) if m.contains("unknown command")
    ));
    assert!(matches!(
        run(&mut s, "QUERY SELECT FROM FROM"),
        Err(Error::Parse { .. })
    ));
    let (reply, flow) = s.dispatch("SHUTDOWN");
    assert!(reply.is_ok());
    assert_eq!(flow, Flow::Shutdown);
}
