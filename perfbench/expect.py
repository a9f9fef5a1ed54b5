"""Expected outcomes, computed without asking the program.

The model knows only what the workload itself decided when it built the
world: who each actor is, who owns each target, and which project groups
each user was put in.  Every check in the workloads compares the
program's observable result against this model, so a wrong decision in
the program cannot also be the thing that judges it.
"""

from __future__ import annotations

ACCEPT = "accept"
DROP = "drop"

#: the LLSC smask strips every *world* bit from any mode a user asks for
WORLD_BITS = 0o007


class Model:
    """Principals and group membership as the workload defined them."""

    def __init__(self):
        #: uid -> set of project gids the uid was made a member of
        self.projects_of: dict[int, set[int]] = {}

    def add_member(self, uid: int, gid: int) -> None:
        self.projects_of.setdefault(uid, set()).add(gid)

    def is_member(self, uid: int, gid: int) -> bool:
        return gid in self.projects_of.get(uid, ())

    # -- network (Section IV-D appendix rule) --------------------------------

    def ubf_verdict(self, init_uid: int, listener_uid: int | None,
                    listener_egid: int | None) -> str:
        """NEW connection to a user port: accept iff nothing listens (the
        stack refuses it), the listener or initiator is root, both are
        the same user, or the initiator belongs to the listener's egid."""
        if listener_uid is None or listener_uid == 0 or init_uid == 0:
            return ACCEPT
        if init_uid == listener_uid:
            return ACCEPT
        if listener_egid is not None and self.is_member(init_uid,
                                                        listener_egid):
            return ACCEPT
        return DROP

    # -- tenant operations ------------------------------------------------------

    def ssh_allowed(self, actor_uid: int, job_owners_on_node: set[int]) -> bool:
        """pam_slurm: a user may enter a compute node only while running a
        job there."""
        return actor_uid in job_owners_on_node

    def home_readable(self, actor_uid: int, owner_uid: int) -> bool:
        """Root-owned 0770 homes with a user-private group: only the
        owner reads inside."""
        return actor_uid == owner_uid

    def acl_grant_allowed(self, actor_uid: int, tag: str,
                          qualifier: int) -> bool:
        """The file permission handler: grants only to the caller's own
        groups, never to another uid."""
        if tag == "user":
            return qualifier == actor_uid
        return self.is_member(actor_uid, qualifier)

    def portal_allowed(self, actor_uid: int, app_owner_uid: int) -> bool:
        """The portal forwards as the authenticated user; the app's host
        UBF then admits only its owner (apps keep their private egid)."""
        return actor_uid == app_owner_uid

    @staticmethod
    def created_mode_ok(mode: int) -> bool:
        """smask: a file a user creates never carries world bits."""
        return mode & WORLD_BITS == 0
