-- Hand-seeded recursive pin: a destination-bound closure whose base
-- arm is filtered (B is not the edge relation E), on a separable
-- step. EMST reverses it: the magic fixpoint grows the ancestors of
-- node 4, each carrying the 4 its path ends in, and the adorned copy
-- is the base arm joined to the seed and to that fixpoint, so the
-- answer is B composed with the step closure. Node 0 reaches 4 only
-- through the edge 0 -> 1, which the base filter drops, so it must
-- not appear; nodes 8, 9 and 10 reach 4 through the 3-cycle. A bag
-- divergence here means the reversal treated B as E or lost the set
-- semantics of the UNION.
WITH RECURSIVE tc (a, b) AS (
  SELECT e.src AS a, e.dst AS b FROM edge AS e WHERE e.dst > 2
  UNION
  SELECT t.a AS a, e2.dst AS b FROM tc AS t, edge AS e2 WHERE e2.src = t.b
)
SELECT t1.a AS c0, t1.b AS c1 FROM tc AS t1 WHERE t1.b = 4
