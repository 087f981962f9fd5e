// Package a is the bodyclose fixture: only retry.Exchange and
// RoundTrip methods may call anything that returns an *http.Response.
package a

import (
	"fmt"
	"io"
	"net/http"
)

// LeakOnStatusCheck is the incident shape: the status-code early
// return added between Do and the Close. Outside the helper the call
// itself is the finding, whatever the function does with the body.
func LeakOnStatusCheck(c *http.Client, req *http.Request) error {
	resp, err := c.Do(req) // want `call returns an \*http.Response outside retry.Exchange`
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode) // leaks the body
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// DiscardedResponse never binds the response at all.
func DiscardedResponse(url string) {
	http.Get(url) // want `call returns an \*http.Response outside retry.Exchange`
}

// cutTransport is the netfault shape: a RoundTripper swaps the body for
// a wrapper and forwards the response to its caller.
type cutTransport struct{ inner http.RoundTripper }

func (t cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(io.LimitReader(resp.Body, 16))
	return resp, nil
}

// RoundTrip without RoundTripper's signature is not a transport.
func (t cutTransport) roundTrip(req *http.Request) error {
	_, err := t.inner.RoundTrip(req) // want `call returns an \*http.Response outside retry.Exchange`
	return err
}

// Exchange outside package retry is not the helper.
func Exchange(c *http.Client, req *http.Request) error {
	_, err := c.Do(req) // want `call returns an \*http.Response outside retry.Exchange`
	return err
}
