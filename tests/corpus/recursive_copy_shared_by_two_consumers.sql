-- Hand-seeded recursive pin: two references to one closure, each
-- binding its destination to a different node, so both take the same
-- adornment and share one reversed copy. The second reference grows
-- the copy's seed, which its magic fixpoint starts from, through the
-- copy memo. That memo branch once held a borrow of the memo
-- while writing to it, which panicked on any second recursive
-- consumer. A bag divergence here means the shared copy mixed up the
-- derivations of the two bindings.
WITH RECURSIVE tc (a, b) AS (
  SELECT e.src AS a, e.dst AS b FROM edge AS e
  UNION
  SELECT t.a AS a, e2.dst AS b FROM tc AS t, edge AS e2 WHERE e2.src = t.b
)
SELECT x.a AS c0, y.a AS c1 FROM tc AS x, tc AS y WHERE x.b = 4 AND y.b = 9 AND x.a < y.a
