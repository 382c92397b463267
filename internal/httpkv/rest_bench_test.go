package httpkv

import (
	"context"
	"fmt"
	"io"
	"net"
	"testing"
)

// BenchmarkRESTGet times a one-record GET of a workload-sized record
// (10 × 100 B) against an in-process node over loopback TCP, three
// ways: through the binding's REST exchange, through a net/http client
// sending the same GET and decoding the same record, and as a raw
// 32-byte loopback ping-pong between two goroutines — the floor under
// both. exchange minus loopback is what the exchange, the server and the
// store add to the round trip; nethttp minus exchange is what net/http's
// client machinery costs.
func BenchmarkRESTGet(b *testing.B) {
	tn := startHTTPNode(b, openTestStore(b), NodeOptions{})
	fields := map[string][]byte{}
	for i := 0; i < 10; i++ {
		fields[fmt.Sprintf("field%d", i)] = make([]byte, 100)
	}
	if _, err := tn.store.Put("t", "k", fields); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("exchange", func(b *testing.B) {
		c := tn.client(b, WireModeOff)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec, err := c.Read(ctx, "t", "k", nil); err != nil || len(rec) != 10 {
				b.Fatalf("read = %d fields, %v", len(rec), err)
			}
		}
	})
	b.Run("nethttp", func(b *testing.B) {
		hc, _ := newPooledHTTPClient(poolSize)
		defer hc.CloseIdleConnections()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := hc.Get(tn.URL + "/v1/t/k")
			if err != nil {
				b.Fatal(err)
			}
			var wr wireRecord
			if err := decodeBody(resp, &wr); err != nil || len(wr.Fields) != 10 {
				b.Fatalf("read = %d fields, %v", len(wr.Fields), err)
			}
		}
	})
	b.Run("loopback", func(b *testing.B) {
		ln := listenOn(b, "127.0.0.1:0")
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var buf [32]byte
			for {
				if _, err := io.ReadFull(conn, buf[:]); err != nil {
					return
				}
				if _, err := conn.Write(buf[:]); err != nil {
					return
				}
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		var buf [32]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Write(buf[:]); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
