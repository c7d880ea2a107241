(** The concurrent session front-end over a {!Repo}.

    The repository value is persistent, so concurrency needs almost no
    machinery: readers take a {!snapshot} with one atomic load and keep a
    fully consistent, immutable view for as long as they like (snapshot
    isolation by persistence — later commits cannot affect it), while
    writers serialize through one mutex and publish the new repository
    value with one atomic store. A session that wants optimistic
    concurrency passes the branch-head watermark it read ([expect_head]);
    a commit that raced past it fails with [Stale_parent] instead of
    silently building on a head the session never saw.

    Deliberately free of any {!Par} dependency (Par sits {e above} the
    repository in the library stack): every operation here is thread-safe
    and total, so callers drive concurrent sessions from [Par.Pool.map] —
    or plain [Domain.spawn] — without this module knowing. Errors are
    data, never exceptions, because pool workers rethrow. *)

type t

type error =
  | Stale_parent of { branch : string; expected : int; actual : int }
      (** the branch advanced past the head the session expected *)
  | Branch_exists of string
  | Repo_error of Repo.checkout_error

val error_to_string : error -> string

val create : Repo.t -> t

val snapshot : t -> Repo.t
(** The current repository value — an immutable, fully consistent view.
    One atomic load; never blocks, not even against an in-flight commit. *)

val commit :
  t ->
  branch:string ->
  ?expect_head:int ->
  ?transformation:string ->
  ?concern:string ->
  message:string ->
  Mof.Model.t ->
  (int, error) result
(** Serialized commit on the named branch; returns the new commit id.
    With [expect_head], fails with [Stale_parent] when the branch head is
    no longer the commit the session read. Diffing replays the submitted
    model's journal when it derives from the branch head's model. *)

val create_branch : t -> string -> (int, error) result
(** A new branch at the current head; returns the commit id it points at. *)

val save : t -> string
(** Binary snapshot of the current value ({!Repo.save}). *)
