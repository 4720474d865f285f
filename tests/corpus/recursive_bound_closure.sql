-- Hand-seeded recursive pin: transitive closure over the fuzz graph
-- with the destination bound in the outer block. The step derives the
-- bound column and copies the other verbatim, so EMST reverses the
-- recursion: a magic fixpoint grows the bound node's ancestors, each
-- carrying the value the last edge of its path gave `b`, and the
-- closure becomes the base arm joined to the seed (no step) and to
-- that fixpoint. Replays under every strategy; a bag divergence
-- here means the recursive magic transformation drifted.
WITH RECURSIVE tc (a, b) AS (
  SELECT e.src AS a, e.dst AS b FROM edge AS e
  UNION
  SELECT t.a AS a, e2.dst AS b FROM tc AS t, edge AS e2 WHERE e2.src = t.b
)
SELECT t1.a AS c0, t1.b AS c1 FROM tc AS t1 WHERE t1.b = 4
