-- Hand-seeded recursive pin: transitive closure over the fuzz graph
-- with the destination bound in the outer block — the shape that puts
-- a *grown* magic set inside the fixpoint (sideways information
-- passing through the step arm). Replays under every strategy ×
-- columnar toggle; a bag divergence here means the
-- recursive magic transformation drifted.
WITH RECURSIVE tc (a, b) AS (
  SELECT e.src AS a, e.dst AS b FROM edge AS e
  UNION
  SELECT t.a AS a, e2.dst AS b FROM tc AS t, edge AS e2 WHERE e2.src = t.b
)
SELECT t1.a AS c0, t1.b AS c1 FROM tc AS t1 WHERE t1.b = 4
