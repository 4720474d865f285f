-- Hand-seeded recursive pin: a reversed destination-bound closure
-- under SELECT DISTINCT that projects the bound column away. The
-- outer block is duplicate-free only because `b = 4` pins `b`; phase
-- 3 pushes that predicate through the adorned copy (a non-recursive
-- UNION) into each arm, and key inference must still see `b` as
-- constant there: every arm pins it to 4. Without that the PerFire
-- lint rejected the push with L030 (a `Preserve` claim it could no
-- longer prove).
WITH RECURSIVE t1 (a, b) AS (
  SELECT t2.src AS a, t2.dst AS b FROM edge AS t2
  UNION
  SELECT t3.a AS a, t4.dst AS b FROM t1 AS t3, edge AS t4 WHERE t4.src = t3.b
)
SELECT DISTINCT t5.a AS c0 FROM t1 AS t5 WHERE t5.b = 4
