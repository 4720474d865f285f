-- Hand-seeded recursive pin: a destination-bound closure reversed by
-- EMST, bound by the DOUBLE literal 3.0 on an INT column, and the
-- bound column halved in the select list. 3.0 equals the closure's 3,
-- so the answers are the nodes reaching 3 with `c1 = 3 / 2 = 1`.
-- The reversal once output the binding in place of the column, so
-- Magic answered 1.5: the closure's `b` must keep the values the steps
-- (or the base arm) produced, whatever type the binding has.
WITH RECURSIVE t1 (a, b) AS (
  SELECT t2.src AS a, t2.dst AS b FROM edge AS t2
  UNION
  SELECT t3.a AS a, t4.dst AS b FROM t1 AS t3, edge AS t4 WHERE t4.src = t3.b
)
SELECT t5.a AS c0, t5.b / 2 AS c1 FROM t1 AS t5 WHERE t5.b = 3.0
