package txn

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"ycsbt/internal/kvstore"
)

// isPrepared reports whether a stored record is a prepared image.
func isPrepared(rec *kvstore.VersionedRecord) bool {
	return string(rec.Field(metaState)) == "P"
}

// isMetaField reports whether a field name is reserved for protocol
// metadata.
func isMetaField(name string) bool {
	return len(name) >= 5 && name[:5] == "_txn:"
}

// userFields strips protocol metadata, returning a copy with only
// application fields.
func userFields(fields map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(fields))
	for f, v := range fields {
		if !isMetaField(f) {
			out[f] = append([]byte(nil), v...)
		}
	}
	return out
}

// readEntry is one key's committed image as a transaction observed
// it: what the read set keeps, so the transaction never asks a store
// again for something it already holds.
type readEntry struct {
	// fields is the committed user image. It is shared — with the
	// store when the record was fetched clean — and never edited;
	// Txn.Read hands out copies.
	fields map[string][]byte
	ver    uint64
	// clean reports that the store held exactly fields at version ver
	// when it was read, so a conditional put expecting ver both
	// validates the read and replaces that image. A read-around is not
	// clean: its fields are the in-flight writer's previous image, its
	// ver that writer's prepared record (see resolveRecord), and a put
	// expecting ver would overwrite the prepare.
	clean bool
}

// isMismatch reports a failed conditional put or delete: the record is
// not at the version (or absence) the caller expected.
func isMismatch(err error) bool {
	return errors.Is(err, kvstore.ErrVersionMismatch) || errors.Is(err, kvstore.ErrExists)
}

// readResolved gets a record and resolves it to its committed user
// image and the version that image is filed under.
func (m *Manager) readResolved(ctx context.Context, s Store, table, key string) (readEntry, error) {
	rec, err := s.Get(ctx, table, key)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return readEntry{}, fmt.Errorf("%w: %s/%s/%s", ErrNotFound, s.Name(), table, key)
		}
		return readEntry{}, err
	}
	return m.resolveRecord(ctx, s, table, key, rec)
}

// resolveRecord turns a fetched record into its committed user image.
// Clean records pass through uncopied. A record prepared by a
// transaction this manager committed and is still finishing resolves to
// the new image once that finish has rolled forward, with no further
// store call. For
// any other prepared record it consults the writer's TSR:
//
//   - TSR committed → the new image is the committed one; roll the
//     record forward opportunistically.
//   - TSR absent → either the writer has not committed, or it has and
//     its finish (roll-forward, TSR delete) completed after rec was
//     fetched; only the record can tell which, so fetch it again and
//     resolve whatever is there now unless it is the same prepared
//     record.
//   - TSR aborted, or TSR absent, the record unchanged and the prepare
//     older than the recovery timeout → the previous image is current;
//     roll back.
//   - TSR absent, the record unchanged and the prepare fresh → the
//     writer is in flight; return the previous image (read-around)
//     without touching the record. This is the one result that is not
//     clean.
//
// A failed TSR lookup is an error, never "absent": rolling back on it
// would undo a committed write whose coordinator is merely unreachable.
func (m *Manager) resolveRecord(ctx context.Context, s Store, table, key string, rec *kvstore.VersionedRecord) (readEntry, error) {
	if !isPrepared(rec) {
		return readEntry{fields: rec.FieldMap(), ver: rec.Version, clean: true}, nil
	}

	writerID := string(rec.Field(metaID))
	coordName := string(rec.Field(metaCoord))
	prepTS, _ := strconv.ParseInt(string(rec.Field(metaPrepareTS)), 10, 64)
	prevImage := rec.Field(metaPrev)
	isDelete := len(rec.Field(metaDelete)) > 0

	if done := m.finishOf(writerID); done != nil {
		// This manager committed the writer and is still finishing it, so
		// no store knows more: the new image is the committed one, and
		// once the finish has rolled forward the record holds it one
		// version on (every roll-forward, whoever makes it, is a put on
		// the prepared version). If that put failed the record is still
		// prepared, a write on this entry conflicts, and the retry finds
		// the TSR.
		select {
		case <-done:
		case <-ctx.Done():
			return readEntry{}, ctx.Err()
		}
		if isDelete {
			return readEntry{}, fmt.Errorf("%w: %s/%s/%s (deleted by committed txn)", ErrNotFound, s.Name(), table, key)
		}
		return readEntry{fields: userFields(rec.FieldMap()), ver: rec.Version + 1, clean: true}, nil
	}

	outcome, err := m.lookupTSR(ctx, coordName, writerID)
	if err != nil {
		return readEntry{}, err
	}

	switch outcome {
	case tsrCommitted:
		// Roll forward: the new image (or deletion) is committed.
		m.recovered.Add(1)
		if isDelete {
			if err := s.Delete(ctx, table, key, rec.Version); err != nil && !errors.Is(err, kvstore.ErrVersionMismatch) && !errors.Is(err, kvstore.ErrNotFound) {
				return readEntry{}, err
			}
			return readEntry{}, fmt.Errorf("%w: %s/%s/%s (deleted by committed txn)", ErrNotFound, s.Name(), table, key)
		}
		clean := userFields(rec.FieldMap())
		newVer, err := s.Put(ctx, table, key, clean, rec.Version)
		if err != nil {
			// Someone else rolled it forward first; reread.
			if errors.Is(err, kvstore.ErrVersionMismatch) {
				return m.readResolved(ctx, s, table, key)
			}
			return readEntry{}, err
		}
		return readEntry{fields: clean, ver: newVer, clean: true}, nil

	case tsrAborted:
		m.recovered.Add(1)
		return m.rollbackAndRead(ctx, s, table, key, rec.Version, prevImage, len(prevImage) > 0)

	default: // TSR absent: in flight, crashed, or finished since rec was fetched.
		cur, err := s.Get(ctx, table, key)
		if errors.Is(err, kvstore.ErrNotFound) {
			return readEntry{}, fmt.Errorf("%w: %s/%s/%s", ErrNotFound, s.Name(), table, key)
		}
		if err != nil {
			return readEntry{}, err
		}
		if cur.Version != rec.Version || string(cur.Field(metaID)) != writerID {
			return m.resolveRecord(ctx, s, table, key, cur)
		}
		age := time.Duration(m.opts.Clock.Now() - prepTS)
		if age > m.opts.RecoveryTimeout {
			// Presume the writer dead and roll back.
			m.recovered.Add(1)
			return m.rollbackAndRead(ctx, s, table, key, rec.Version, prevImage, len(prevImage) > 0)
		}
		// Read around the in-flight writer: its previous image is the
		// committed state.
		if len(prevImage) == 0 {
			return readEntry{}, fmt.Errorf("%w: %s/%s/%s (prepared insert in flight)", ErrNotFound, s.Name(), table, key)
		}
		prev, err := decodeImage(prevImage)
		if err != nil {
			return readEntry{}, err
		}
		// The version reported is the prepared record's version, and
		// the entry is not clean: a reader that goes on to write the key
		// conflicts with the in-flight writer, which is the safe outcome.
		return readEntry{fields: prev, ver: rec.Version}, nil
	}
}

// rollbackAndRead restores the previous committed image over a dead
// prepared record, then returns it.
func (m *Manager) rollbackAndRead(ctx context.Context, s Store, table, key string, preparedVer uint64, prevImage []byte, prevExisted bool) (readEntry, error) {
	if err := m.rollbackRecord(ctx, s, table, key, preparedVer, prevImage, prevExisted); err != nil {
		return readEntry{}, err
	}
	if !prevExisted {
		return readEntry{}, fmt.Errorf("%w: %s/%s/%s (aborted insert)", ErrNotFound, s.Name(), table, key)
	}
	return m.readResolved(ctx, s, table, key)
}

// rollbackRecord undoes one prepared record: restore the previous
// image, or delete it when the prepare was an insert. Version races
// (someone else resolved it first) are not errors.
func (m *Manager) rollbackRecord(ctx context.Context, s Store, table, key string, preparedVer uint64, prevImage []byte, prevExisted bool) error {
	if !prevExisted {
		err := s.Delete(ctx, table, key, preparedVer)
		if err != nil && !errors.Is(err, kvstore.ErrVersionMismatch) && !errors.Is(err, kvstore.ErrNotFound) {
			return err
		}
		return nil
	}
	prev, err := decodeImage(prevImage)
	if err != nil {
		return err
	}
	if _, err := s.Put(ctx, table, key, prev, preparedVer); err != nil && !errors.Is(err, kvstore.ErrVersionMismatch) && !errors.Is(err, kvstore.ErrNotFound) {
		return err
	}
	return nil
}

// rollForwardRecord applies one committed write over its prepared
// image. A version race is not a failure: a reader that found the TSR
// rolled the record forward first. Anything else means the prepared
// record may still be there, and only the TSR says it is committed.
func (m *Manager) rollForwardRecord(ctx context.Context, s Store, table, key string, w *pendingWrite) error {
	if !w.prepared {
		return nil
	}
	var err error
	if w.kind == kindDelete {
		err = s.Delete(ctx, table, key, w.preparedVer)
	} else {
		_, err = s.Put(ctx, table, key, w.fields, w.preparedVer)
	}
	if errors.Is(err, kvstore.ErrVersionMismatch) || errors.Is(err, kvstore.ErrNotFound) {
		return nil
	}
	return err
}

// lookupTSR returns the TSR state for a transaction, "" when there is
// no TSR (or no such coordinating store), and an error when the
// coordinating store could not say.
func (m *Manager) lookupTSR(ctx context.Context, coordName, txnID string) (string, error) {
	coord, ok := m.stores[coordName]
	if !ok {
		return "", nil
	}
	rec, err := coord.Get(ctx, tsrTable, txnID)
	if errors.Is(err, kvstore.ErrNotFound) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("txn: looking up TSR %s in %s: %w", txnID, coordName, err)
	}
	return string(rec.Field(tsrState)), nil
}
