//! The frame codec: every reply the dispatcher can give survives
//! `write_frame` then `read_frame`, and a result set is written byte
//! for byte as the wire has always carried it.

use starmagic_common::{Error, Result, Row, Value};
use starmagic_server::protocol::{read_frame, write_frame};
use starmagic_server::Response;

/// Read one frame back from the text `write_frame` produced.
fn read_back(frame: &str) -> Result<Response> {
    let mut lines = frame.lines();
    let reply = read_frame(|| {
        lines
            .next()
            .map(str::to_string)
            .ok_or_else(|| Error::execution("frame ended early"))
    });
    assert_eq!(lines.next(), None, "the reader consumed the whole frame");
    reply
}

fn rows() -> Response {
    Response::Rows {
        columns: vec![
            "deptname".to_string(),
            "avg salary".to_string(),
            String::new(),
        ],
        rows: vec![
            Row::new(vec![
                Value::str("Planning"),
                Value::Double(0.1 + 0.2),
                Value::Null,
            ]),
            Row::new(vec![Value::str(""), Value::Double(-0.0), Value::Int(-7)]),
            Row::new(vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::str("a\tb \\"),
            ]),
        ],
        cache_hit: true,
        used_magic: false,
        epoch: 42,
    }
}

#[test]
fn every_reply_round_trips() {
    let replies = [
        Ok(rows()),
        Ok(Response::Rows {
            columns: Vec::new(),
            rows: Vec::new(),
            cache_hit: false,
            used_magic: true,
            epoch: 0,
        }),
        Ok(Response::Ok { info: Vec::new() }),
        Ok(Response::Ok {
            info: vec![
                ("rows".to_string(), "0".to_string()),
                ("epoch".to_string(), "3".to_string()),
            ],
        }),
        Ok(Response::Text("== plan cache\n  entries 0\n".to_string())),
        Ok(Response::Text(String::new())),
        Ok(Response::Busy(
            "server saturated (64 in-flight queries); retry".to_string(),
        )),
        Err(Error::Parse {
            message: "unexpected token `)`".to_string(),
            offset: 17,
        }),
        Err(Error::Semantic("unknown column x".to_string())),
        Err(Error::NotFound("prepared statement p".to_string())),
        Err(Error::AlreadyExists("view v".to_string())),
        Err(Error::Execution("division by zero".to_string())),
        Err(Error::Internal("bad frame".to_string())),
        Err(Error::Unsupported("unknown command \\tables".to_string())),
    ];
    for reply in replies {
        let frame = write_frame(&reply);
        assert!(frame.ends_with('\n'), "{frame:?}");
        // `Debug` tells `-0.0` from `0.0`, which `==` equates.
        assert_eq!(
            format!("{:?}", read_back(&frame)),
            format!("{reply:?}"),
            "frame {frame:?}"
        );
    }
}

#[test]
fn a_result_set_is_written_as_the_wire_has_always_carried_it() {
    let want = "COLS 3 deptname avg\\ssalary \\0\n\
                ROW SPlanning D3fd3333333333334 N\n\
                ROW S\\0 D8000000000000000 I-7\n\
                ROW BT BF Sa\\tb\\s\\\\\n\
                OK rows=3 hit=1 magic=0 epoch=42\n";
    assert_eq!(write_frame(&Ok(rows())), want);
}

#[test]
fn an_error_inside_a_result_set_is_the_reply() {
    let frame = "COLS 1 n\nROW I1\nERR Execution scalar\\ssubquery\\sreturned\\s2\\srows\n";
    assert_eq!(
        read_back(frame),
        Err(Error::Execution(
            "scalar subquery returned 2 rows".to_string()
        ))
    );
}
