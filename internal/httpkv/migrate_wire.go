package httpkv

import (
	"context"
	"net/http"

	"ycsbt/internal/kvwire"
)

// The framed migration copy: when both ends of a migration advertise
// stream-capable binary listeners (X-KV-Wire + X-KV-Wire-Stream), the
// copy leg runs scan-chunk frames out of the source straight into an
// ingest stream on the destination — no NDJSON encode/decode round
// trip, no per-chunk POST, and both directions credit-gated so neither
// the migrator nor the destination buffers more than a window of
// chunks. Any wire failure falls the table back to the HTTP copy,
// which is safe to repeat: Engine.Ingest skips records the destination
// already holds at the same or newer commit ts.

// MigrateOptions tunes MigrateSlot.
type MigrateOptions struct {
	// DisableWire forces the HTTP copy path even when both nodes
	// advertise streaming wire listeners — the benchmark's baseline
	// cell and an operator escape hatch.
	DisableWire bool
}

// sniffNodeWireStream probes one node for a stream-capable binary
// listener, returning its dialable address. The probe is a plain
// shardmap GET: wire-capable servers stamp every response with the
// advertisement headers, so any cheap route works.
func sniffNodeWireStream(ctx context.Context, hc *http.Client, base string) (string, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/shardmap", nil)
	if err != nil {
		return "", false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", false
	}
	drainClose(resp)
	if resp.Header.Get(WireStreamHeader) == "" {
		return "", false
	}
	addr := resolveWireAddrAgainst(base, resp.Header.Get(WireAddrHeader))
	return addr, addr != ""
}

// copySlotWire streams one table's slice of the slot from src (scanned
// as-of ts, tombstones included) into an ingest stream on dest. The
// scan request carries ts and the tombstone flag in the frame itself
// and the server validates both, so the echo checks the HTTP copy
// needs are structural here. Version and CommitTS ride each record
// frame; StreamIngest preserves them like the NDJSON route.
func copySlotWire(ctx context.Context, srcEp, dstEp *kvwire.Endpoint, table string, slot int, ts int64) error {
	s, err := srcEp.Scan(ctx, &kvwire.ScanRequest{
		Table:      table,
		Count:      -1,
		AsOf:       ts,
		Slot:       slot,
		Tombstones: true,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	in, err := dstEp.Ingest(ctx, table)
	if err != nil {
		return err
	}
	batch := make([]kvwire.StreamRecord, 0, migrateChunkRecords)
	size := 0
	for s.Next() {
		rec := s.Record()
		batch = append(batch, *rec)
		size += len(rec.Key) + 16
		for k, v := range rec.Fields {
			size += len(k) + len(v) + 4
		}
		if len(batch) >= migrateChunkRecords || size >= migrateChunkBytes {
			if err := in.Send(batch); err != nil {
				return err // Send already finished the stream
			}
			batch = batch[:0]
			size = 0
		}
	}
	if err := s.Err(); err != nil {
		in.Abort()
		return err
	}
	if len(batch) > 0 {
		if err := in.Send(batch); err != nil {
			return err
		}
	}
	_, err = in.Close()
	return err
}
