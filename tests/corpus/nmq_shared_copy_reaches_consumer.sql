-- Minimized by starmagic-fuzz (seed 16, case 187). Three views are
-- joined; EMST pushes a binding through a group-by into TOPPAY's body
-- (process_nmq) and meets an adorned copy an earlier consumer made with
-- the same adornment. The memo shared it, because this sharing point
-- only asked whether the new magic box reaches the copy, not whether
-- the copy reaches its new consumer. The retarget closed a cycle
-- through DEPTSUMMARY that the per-fire lint rejects (L011, L024 at
-- TOPPAY_GB^bf). All three sharing points now use one guard, and the
-- consumer gets a private copy.
SELECT (SELECT SUM(t4.avgsal) FROM deptsummary AS t4) AS c0 FROM projcount AS t1, deptsummary AS t2, toppay AS t3 WHERE t1.deptno = t2.deptno AND t2.deptno = t3.workdept
