"""Venus's incremental dirty flags agree with the full scan, always.

``Venus._refresh_dirty`` only revisits cache entries whose fid entered
or left the set the CML references, plus entries inserted since the
previous refresh.  For any interleaving of write-disconnected updates,
reintegration (success and conflict), an aborted barrier, discarded
records, cache re-insertions and a crash/restore, every refresh must
leave each resident entry's ``dirty`` equal to the full-scan reference
``entry.fid in {r.fid for r in cml}``.

The mount-table memo behind ``Venus._mount_for`` is checked here too:
it must forget its answers whenever the mount table changes, and it
must stay bounded however many distinct paths a client resolves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.common import make_testbed, populate_volume, warm_cache
from repro.faults import restore_venus, snapshot_venus
from repro.fs.content import Content, SyntheticContent
from repro.net import MODEM
from repro.venus import VenusConfig
from repro.venus.cache import CacheEntry
from repro.venus.states import VenusState

MOUNT = "/coda/usr/prop"
NAMES = ["a", "b", "c", "d"]

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "mkdir", "unlink", "rename", "reintegrate",
                         "conflict", "abort", "discard", "reinsert",
                         "readd-stale", "fresh-entry", "crash"]),
        st.integers(min_value=0, max_value=len(NAMES) - 1),
        st.integers(min_value=0, max_value=len(NAMES) - 1),
    ),
    min_size=1, max_size=12)


def assert_flags_match_full_scan(venus):
    referenced = {record.fid for record in venus.cml}
    for entry in venus.cache.iter_entries():
        assert entry.dirty == (entry.fid in referenced), entry


def checked(venus, refreshes):
    """Check the full-scan invariant after every refresh of ``venus``."""
    plain = venus._refresh_dirty

    def refresh_and_check():
        plain()
        refreshes.append(venus.sim.now)
        assert_flags_match_full_scan(venus)

    venus._refresh_dirty = refresh_and_check
    return venus


class World:
    """One write-disconnected client over a modem, plus a file model."""

    def __init__(self):
        config = VenusConfig(start_daemons=False, aging_window=0.0)
        self.testbed = make_testbed(MODEM, venus_config=config, seed=5)
        tree = {MOUNT + "/work": ("dir", 0),
                MOUNT + "/work/base.txt": ("file", 800)}
        self.volume = populate_volume(self.testbed.server, MOUNT, tree)
        warm_cache(self.testbed.venus, self.testbed.server, self.volume)
        self.refreshes = []
        self.venus = checked(self.testbed.venus, self.refreshes)
        self.model = {"base.txt": "file"}
        self.serial = 0
        self.connect()

    def run(self, generator):
        return self.testbed.run(generator)

    def connect(self):
        venus = self.venus

        def go():
            reached = yield from venus.connect()
            assert reached
        self.run(go())
        assert venus.state.state is VenusState.WRITE_DISCONNECTED

    def path(self, name):
        return MOUNT + "/work/" + name

    def content(self):
        self.serial += 1
        return SyntheticContent(300 + self.serial, tag=("dirty", self.serial))

    # -- the operations ------------------------------------------------

    def write(self, name, _other):
        if self.model.get(name, "file") != "file":
            return
        self.run(self.venus.write_file(self.path(name), self.content()))
        self.model[name] = "file"

    def mkdir(self, name, _other):
        if name in self.model:
            return
        self.run(self.venus.mkdir(self.path(name)))
        self.model[name] = "dir"

    def unlink(self, name, _other):
        if self.model.get(name) != "file":
            return
        self.run(self.venus.unlink(self.path(name)))
        del self.model[name]

    def rename(self, name, other):
        if self.model.get(name) != "file" or other in self.model:
            return
        self.run(self.venus.rename(self.path(name), self.path(other)))
        del self.model[name]
        self.model[other] = "file"

    def reintegrate(self, _name, _other):
        self.run(self.venus.trickle.drain())
        assert len(self.venus.cml) == 0

    def conflict(self, _name, _other):
        """Update base.txt on both sides, then reintegrate: the local
        store conflicts and is discarded from the log."""
        self.run(self.venus.write_file(self.path("base.txt"),
                                       self.content()))
        volume = self.volume
        work = volume.require(volume.root.lookup("work"))
        vnode = volume.get(work.lookup("base.txt"))
        vnode.content = Content.of(b"theirs %d" % self.serial)
        volume.bump(vnode, self.testbed.sim.now)
        self.reintegrate(None, None)
        assert self.venus.trickle.stats.conflicts

    def abort(self, name, _other):
        """Freeze the log, overwrite a file behind the barrier, abort:
        re-optimisation cancels the frozen store."""
        cml = self.venus.cml
        if not len(cml) or self.model.get(name, "file") != "file":
            return
        cml.freeze(len(cml))
        self.write(name, None)
        cml.abort_frozen()
        self.venus._refresh_dirty()

    def discard(self, _name, _other):
        cml = self.venus.cml
        if not len(cml):
            return
        cml.discard(cml.records[-1:])
        self.venus._refresh_dirty()

    def reinsert(self, name, _other):
        """Remove and re-add a resident entry, stale flag and all (the
        fetch path's keep-dirty-state move)."""
        cache = self.venus.cache
        entry = self._entry(name)
        if entry is None:
            return
        cache.remove(entry.fid)
        cache.add(entry, self.testbed.sim.now)
        self.venus._refresh_dirty()

    def readd_stale(self, name, _other):
        """Take a file's entry out, reintegrate while it is out, and put
        it back still flagged dirty: only insertion tracking can fix the
        flag, since the fid's move was consumed while it was out."""
        cache = self.venus.cache
        entry = self._entry(name)
        if entry is None or self.model[name] != "file":
            return
        cache.remove(entry.fid)
        self.reintegrate(None, None)
        cache.add(entry, self.testbed.sim.now)
        self.venus._refresh_dirty()
        # The entry missed the reintegration's version updates; drop it
        # so the next access fetches the server's status afresh.
        cache.remove(entry.fid)

    def fresh_entry(self, name, _other):
        """Replace a resident entry with a new clean-flagged object."""
        cache = self.venus.cache
        entry = self._entry(name)
        if entry is None:
            return
        clone = CacheEntry(entry.fid, entry.otype, path=entry.path)
        clone.content = entry.content
        clone.children = entry.children
        clone.local = entry.local
        cache.remove(entry.fid)
        cache.add(clone, self.testbed.sim.now)
        self.venus._refresh_dirty()

    def crash(self, _name, _other):
        snapshot = snapshot_venus(self.venus)
        self.venus.crash()
        self.venus = checked(
            restore_venus(snapshot, self.testbed.sim, self.testbed.net,
                          self.venus.endpoint.host),
            self.refreshes)
        # restore_venus refreshed before the checker was installed.
        assert_flags_match_full_scan(self.venus)
        self.refreshes.append(self.testbed.sim.now)
        self.testbed.venus = self.venus
        self.connect()

    def _entry(self, name):
        if name not in self.model:
            return None
        try:
            _vol, parts, _prefix = self.venus._mount_for(self.path(name))
        except FileNotFoundError:
            return None
        here = self.venus.cache.get(self.volume.root_fid)
        for part in parts:
            if here is None or here.children is None:
                return None
            fid = here.children.get(part)
            here = self.venus.cache.get(fid) if fid is not None else None
        return here


@settings(max_examples=150, deadline=None)
@given(ops_strategy)
def test_refresh_always_matches_full_scan(ops):
    world = World()
    for kind, i, j in ops:
        getattr(world, kind.replace("-", "_"))(NAMES[i], NAMES[j])
        assert_flags_match_full_scan(world.venus)
    world.write("a", None)                  # one last refresh
    assert world.refreshes


def test_every_event_kind_reaches_a_refresh():
    """A fixed walk through every operation, so each kind is covered
    regardless of what Hypothesis draws."""
    world = World()
    script = [("write", 0, 0), ("write", 1, 0), ("abort", 0, 0),
              ("reinsert", 0, 0), ("fresh-entry", 1, 0), ("discard", 0, 0),
              ("write", 2, 0), ("readd-stale", 2, 0), ("crash", 0, 0),
              ("rename", 1, 3), ("mkdir", 1, 0), ("conflict", 0, 0),
              ("write", 0, 0), ("reintegrate", 0, 0), ("unlink", 0, 0)]
    for kind, i, j in script:
        before = len(world.refreshes)
        getattr(world, kind.replace("-", "_"))(NAMES[i], NAMES[j])
        assert len(world.refreshes) > before, kind


# ----------------------------------------------------------------------
# the mount memo


def second_volume(testbed, prefix):
    return populate_volume(testbed.server, prefix,
                           {prefix + "/doc.txt": ("file", 100)})


def test_mount_memo_forgets_after_learn_mounts():
    world = World()
    venus = world.venus
    nested = MOUNT + "/work/proj"
    path = nested + "/doc.txt"
    before = venus._mount_for(path)
    assert before[0][1] == world.volume.root_fid
    assert venus._mount_for(path) is before          # memoised
    volume = second_volume(world.testbed, nested)
    venus.learn_mounts(world.testbed.server.registry)
    after = venus._mount_for(path)
    assert after[0] == (volume.volid, volume.root_fid)
    assert after[1:] == (("doc.txt",), nested)


def test_mount_memo_forgets_after_restore_venus(monkeypatch):
    from repro.venus.venus import Venus

    installed = []
    plain_set_mounts = Venus.set_mounts

    def spy(self, mounts):
        installed.append(dict(mounts))
        return plain_set_mounts(self, mounts)

    monkeypatch.setattr(Venus, "set_mounts", spy)
    world = World()
    venus = world.venus
    elsewhere = "/coda/usr/other/doc.txt"
    with pytest.raises(FileNotFoundError):
        venus._mount_for(elsewhere)
    volume = second_volume(world.testbed, "/coda/usr/other")
    venus.learn_mounts(world.testbed.server.registry)
    assert venus._mount_for(elsewhere)[0][0] == volume.volid
    snapshot = snapshot_venus(venus)
    venus.crash()
    revived = restore_venus(snapshot, world.testbed.sim, world.testbed.net,
                            venus.endpoint.host)
    assert installed == [snapshot.mounts]
    assert revived._mount_for(elsewhere)[0][0] == volume.volid
    # A restore onto an instance that has memoised answers replaces
    # them: set_mounts is the one way in.
    revived.set_mounts({})
    with pytest.raises(FileNotFoundError):
        revived._mount_for(elsewhere)


def test_mount_memo_stays_bounded():
    from repro.venus.venus import MOUNT_MEMO_CAP

    venus = World().venus
    first = venus._mount_for(MOUNT + "/tmp0")
    for n in range(1, 2 * MOUNT_MEMO_CAP + 1):
        path = "%s/tmp%d" % (MOUNT, n)
        assert venus._mount_for(path)[1] == ("tmp%d" % n,)
        assert len(venus._mount_memo) <= MOUNT_MEMO_CAP
    # Starting over only forgets: an evicted path resolves as before.
    assert venus._mount_for(MOUNT + "/tmp0") == first
