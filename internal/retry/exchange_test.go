package retry

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"testing"
)

// exchangeServer answers /?status=S&size=N with status S and an N-byte
// body.
func exchangeServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, _ := strconv.Atoi(r.URL.Query().Get("status"))
		size, _ := strconv.Atoi(r.URL.Query().Get("size"))
		w.Header().Set("Content-Length", strconv.Itoa(size))
		w.WriteHeader(status)
		_, _ = w.Write(bytes.Repeat([]byte{'x'}, size))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// exchangeReused runs one Exchange of /?status&size with handle and
// reports whether it ran on a connection an earlier request returned
// to the pool.
func exchangeReused(t *testing.T, c *http.Client, base string, status, size int, handle func(int, http.Header, io.Reader) error) (bool, error) {
	t.Helper()
	var reused bool
	req, err := http.NewRequest(http.MethodGet, base+"/?status="+strconv.Itoa(status)+"&size="+strconv.Itoa(size), nil)
	if err != nil {
		t.Fatal(err)
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	}))
	err = Exchange(c, req, handle)
	return reused, err
}

// Exchange returns the connection to the pool after every outcome a
// caller can produce, which is what keeps the router's scatter-gather
// from running out of connections: after each exchange below, the
// next one must reuse the connection.
func TestExchangeReturnsConnection(t *testing.T) {
	srv := exchangeServer(t)
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	t.Cleanup(c.CloseIdleConnections)
	errHandle := errors.New("handle failed")
	readAll := func(_ int, _ http.Header, body io.Reader) error {
		_, err := io.Copy(io.Discard, body)
		return err
	}
	readSome := func(n int64) func(int, http.Header, io.Reader) error {
		return func(_ int, _ http.Header, body io.Reader) error {
			_, err := io.Copy(io.Discard, io.LimitReader(body, n))
			return err
		}
	}
	if _, err := exchangeReused(t, c, srv.URL, 200, 16, readAll); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		status, size int
		handle       func(int, http.Header, io.Reader) error
		want         error
	}{
		{"2xx read fully", 200, 4096, readAll, nil},
		{"2xx read partly", 200, 32 << 10, readSome(100), nil},
		{"handle error", 200, 4096, func(int, http.Header, io.Reader) error { return errHandle }, errHandle},
		// The router reads a 512-byte excerpt of a non-2xx body.
		{"non-2xx past the excerpt", 503, 2048, readSome(512), nil},
	} {
		if _, err := exchangeReused(t, c, srv.URL, tc.status, tc.size, tc.handle); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		reused, err := exchangeReused(t, c, srv.URL, 200, 16, readAll)
		if err != nil {
			t.Fatal(err)
		}
		if !reused {
			t.Fatalf("%s: the next request dialled a new connection", tc.name)
		}
	}

	// The drain is bounded: a body whose unread rest exceeds maxDrain
	// is closed unread and costs its connection. This also shows that
	// the trace above tells a reused connection from a new one.
	if _, err := exchangeReused(t, c, srv.URL, 200, 4*maxDrain, readSome(100)); err != nil {
		t.Fatal(err)
	}
	if reused, err := exchangeReused(t, c, srv.URL, 200, 16, readAll); err != nil || reused {
		t.Fatalf("after an undrained body: reused = %v, err = %v; want a new connection", reused, err)
	}
}
