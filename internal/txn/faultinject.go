package txn

import (
	"fmt"
	"strconv"
	"time"

	"ycsbt/internal/kvstore"
)

// Fault-injection helpers: fabricate the on-store state a crashed
// writer leaves behind, so tests and failure-injection suites can
// exercise the recovery paths without actually killing a process
// mid-commit.

// InstallPreparedForTest overwrites table/key on store with a
// prepared image exactly as a writer that crashed mid-commit would
// leave it: newFields as the pending value, the given current record
// as the encoded previous image, and txnID/coord in the metadata.
func InstallPreparedForTest(store *kvstore.Store, table, key string, cur *kvstore.VersionedRecord, newFields map[string][]byte, txnID, coord string) error {
	prepared := make(map[string][]byte, len(newFields)+5)
	for f, v := range newFields {
		if isMetaField(f) {
			return fmt.Errorf("txn: reserved field %q in prepared image", f)
		}
		prepared[f] = v
	}
	prepared[metaState] = []byte("P")
	prepared[metaID] = []byte(txnID)
	prepared[metaCoord] = []byte(coord)
	prepared[metaPrepareTS] = []byte(strconv.FormatInt(time.Now().UnixNano(), 10))
	prepared[metaPrev] = encodeImage(cur.Project(nil))
	_, err := store.PutIfVersion(table, key, prepared, cur.Version)
	return err
}
