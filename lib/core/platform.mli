(** The PIM-to-PSM projection, packaged as one more generic transformation
    (concern key ["platform"]) so that platform selection flows through the
    same specialize-check-apply machinery as the middleware concerns.

    The projection marks the model as a PSM for the selected platform and
    stereotypes every non-infrastructure class with the platform's component
    model («corba-servant», «ejb», «assembly», «service»). Its associated
    generic aspect is empty — the platform dimension has no cross-cutting
    code of its own; code-level platform knowledge lives in the code
    generator back-end. *)

val ensure_registered : unit -> unit
(** Registers the projection in the concern registry (idempotent). *)
