-- Minimized by starmagic-fuzz (seed 17). EMST's T3 replaces
-- TOPPAY^bf's constant magic box with a dup-free union keyed by its
-- whole row, so TOPPAY^bf is keyed {workdept}. T2 filters
-- t1.workdept = -1, which pins that key, but `-1` reaches the graph as
-- a negated literal, and key inference counted only a bare literal or
-- parameter as a constant: T2's Preserve claim was true but unproved
-- (L030 at B2). ScalarExpr::is_constant sees through negation, so the
-- column is pinned and the claim is proved.
SELECT DISTINCT t1.maxsal FROM toppay t1 WHERE t1.workdept = -1 UNION SELECT 0 FROM deptsummary t5
