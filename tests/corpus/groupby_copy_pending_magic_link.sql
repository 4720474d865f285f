-- Minimized by starmagic-fuzz (seed 2, case 304). Three views are
-- joined; EMST makes an adorned copy of a group-by view whose magic
-- box still sits in the copy's pending magic links, waiting for
-- process_nmq to make it a quantifier on a later pass. The sharing
-- guard's reachability test followed quantifiers only, so it missed
-- that edge and approved a share whose cycle closed one pass later
-- (L011 at TOPPAY, L024 at DEPTAVGSAL_GB adorned bff). Every walk of
-- the box graph now takes its edges from Qgm::inputs, which counts a
-- pending magic link as a dependency, so the share is declined.
SELECT t3.workdept FROM deptsummary t1, toppay t2, mgrsal t3 WHERE t1.deptno = t2.workdept AND t2.workdept = t3.workdept
