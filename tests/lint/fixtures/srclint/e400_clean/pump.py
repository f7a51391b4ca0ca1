"""Fixture: an exhaustive pump and a well-behaved core generator."""

from outbox import Answer, Ask, Emit, Spawn, Wait


class FullPump:
    # Handling split across two methods, like the sim driver's: the
    # module is the unit that must perform every effect.
    def perform(self, effects):
        for effect in effects:
            if isinstance(effect, (Emit, Spawn)):
                self.run(effect)
            elif isinstance(effect, Answer):
                self.deliver(effect)

    def pump(self, effect):
        if isinstance(effect, Wait):
            self.sleep(effect.seconds)
        elif isinstance(effect, Ask):
            self.round_trip(effect)

    def run(self, effect):
        pass

    def deliver(self, effect):
        pass

    def sleep(self, seconds):
        pass

    def round_trip(self, effect):
        pass


def polite(peer):
    reply = yield Ask(req_id="1")    # reply captured: E403-clean
    yield Wait(seconds=1.0)
    if reply is not None:
        yield Emit(to=peer)
