// Package replica turns a durable.DB into a read replica of a remote
// primary by canonical-state anti-entropy.
//
// The paper's property makes replication uniquely easy to get provably
// right: every shard's durable image is a pure function of (contents,
// seed), so two nodes with equal contents hold byte-identical images,
// each filed under its SHA-256, and the manifest that lists them is
// canonical too — its SHA-256 names the checkpoint. A checkpoint IS its
// manifest, and anti-entropy reduces to comparing one hash (HEALTH) and
// fetching blobs by hash (SYNC): the manifest first, then the images it
// names that the local disk lacks — no oplog, no sequence numbers, no
// vector clocks. An operation log would also be an operation *history*,
// the exact artifact this system exists to keep off the disk;
// replication ships state, never operations, so history independence
// survives the hop: after a sync the replica's DB directory is
// byte-identical to the primary's checkpoint, and an adversary imaging
// either disk learns the same nothing.
//
// A Replica owns one connection to the primary (redialed on error) and
// runs rounds: HEALTH; if the advertised manifest hash equals the local
// stamp the round is over; otherwise fetch that manifest chunk by
// chunk, verify its SHA-256, and hand it to durable.DB.Install with a
// fetch function for blobs. Install — recovery's own loader — takes
// each image from the local content-addressed file when that file has
// the manifest's size and hash (so a rotten file is noticed where it is
// used, refetched and replaced), fetches the rest, and commits through
// the same atomic sequence checkpoints use, so a power cut mid-install
// recovers to either the old or the new checkpoint, never a mix. Reads
// keep being served throughout: the store swap is a single atomic
// pointer publication.
//
// # Why a round needs no second look at the primary
//
// The hazard is installing a mix of two checkpoints because the primary
// committed mid-round. It cannot happen, and not because the round
// checks for it: once the manifest is fetched and verified the round's
// target is fixed, and every later fetch is BY A HASH THAT MANIFEST
// NAMES. A blob either arrives hashing to what was asked — then it is
// the byte string the manifest means, whatever the primary has
// committed since: content addressing leaves no other bytes under that
// name — or the primary no longer holds it and answers stale, which
// fails the round before anything is committed (what was staged is
// wiped; the next round starts from a fresh HEALTH). So a round
// installs exactly the one manifest it fetched, or nothing. (The
// protocol this replaced gathered per-keyspace descriptors over T+2
// round trips and had to re-probe HEALTH before installing.)
//
// The replica only ever installs state the primary has *committed*, so
// a replica can never run ahead of its primary's disk: a primary crash
// rolls back, at worst, to a checkpoint every replica already had or
// can re-converge to. Serving the installed checkpoint (rather than
// the primary's live memory) is what makes the guarantee exact.
//
// # Whose replica, and until when
//
// A Replica holds no role of its own. The node's role is one bit on the
// DB (durable.DB.Replica), and Install — where every round that finds
// news ends — reads it under the checkpoint lock a promotion flips it
// under: on a primary it installs nothing. So a promotion needs no
// handshake with anti-entropy; however it arrives (PROMOTE on the wire,
// Replica.Promote, DB.Promote), a round already installing lands whole
// before the flip and no round installs after it. A Replica also
// remembers the DB's promotion count at New and refuses rounds once it
// has moved (ErrPromoted) — sparing a doomed round its fetches, ending
// the loops, and keeping a Replica created for one primary from
// resuming against it after a later Demote: the rejoin path makes a new
// one. (A round that was past that check when a Promote and a Demote
// both landed may still install the old primary's checkpoint; the node
// is a replica again by then, and its next round, under the new
// Replica, replaces it.)
//
// Nothing a peer says is trusted for memory: the manifest goes through
// recovery's hostile-input decoder, an image's size — even out of a
// manifest that verifies — is reserved only up to a fixed bound, and
// the manifest, whose length nobody advertises, grows with what arrives
// under that bound.
//
// An image is assembled in ONE buffer, and it is the install's:
// durable.DB.Install hands the fetch function a dst — the single buffer
// recovery's loader reads local images into, sized once for the
// largest image the manifest names — and fetchBlob appends the image to
// it chunk by chunk through client.Conn.SyncChunk(dst, hash, offset,
// maxLen), which appends each chunk to the dst it is handed (the
// client's reply buffers are pooled, so it never returns a slice of
// one). So an install holds one image at a time whether the image is
// local or fetched, and fetchBlob makes no buffer of its own. The
// manifest is the exception, by design: Install keeps its bytes as the
// committed checkpoint, so it is fetched into a buffer of its own and
// never into the one images pass through. On the serving side each
// chunk is one positional read from the committed file into the
// connection's reply buffer (durable.BlobReader), so neither end holds
// an image-sized copy between requests.
package replica
